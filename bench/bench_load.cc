// Index loading paths: v2 interchange decode vs v3 aligned container, with
// the v3 file consumed both by copy (ReadFileToBlob) and zero-copy mmap
// (MapFile). Two panels:
//
//   a) file load — time from on-disk container to a queryable compact
//      SubstringIndex for each path, plus the two container sizes. The v3
//      mmap column is the serving-restart number the zero-copy work
//      targets: section payloads are handed out as pointers into the
//      mapping instead of decoded copies.
//   b) hot reload — ServingEngine::Reload(path) latency under the same
//      mmap/copy split: load + validate the new generation, flip the
//      generation pointer, drop the stale result cache. The engine keeps
//      serving throughout, so this is swap latency, not downtime.
//
// Query cost after load is identical across the three paths (the mmap
// round-trip equivalence tests assert bit-identical results), so no panel
// re-measures it; bench_ablation_compact covers query timing.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "core/serde.h"
#include "core/substring_index.h"
#include "datagen/datagen.h"
#include "engine/serving_engine.h"

namespace pti {
namespace {

std::vector<int64_t> Sizes(const bench::Args& args) {
  std::vector<int64_t> sizes = {25000, 50000, 100000};
  if (args.full) sizes.push_back(200000);
  return sizes;
}

UncertainString MakeString(int64_t n) {
  DatasetOptions data;
  data.length = n;
  data.theta = 0.3;
  data.seed = 99;
  return GenerateUncertainString(data);
}

IndexOptions CompactOptions() {
  IndexOptions options;
  options.transform.tau_min = 0.1;
  options.compact = true;
  return options;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("pti_bench_load_" + name))
      .string();
}

void WriteWhole(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) std::exit(1);
}

// Build once per n, persist both container versions, and time the three
// load paths. Each load is timed including the file read/map: that is the
// quantity a restarting server pays.
void RunFileLoad(const bench::Args& args) {
  bench::Table table("n");
  table.SetColumns({"v2 ms", "v3 copy ms", "v3 mmap ms", "v2 MiB",
                    "v3 MiB"});
  for (const int64_t n : Sizes(args)) {
    const UncertainString s = MakeString(n);
    const auto built = SubstringIndex::Build(s, CompactOptions());
    if (!built.ok()) std::exit(1);
    std::string v2_blob, v3_blob;
    if (!built->Save(&v2_blob, serde::kInterchangeVersion).ok() ||
        !built->Save(&v3_blob, serde::kContainerVersion).ok()) {
      std::exit(1);
    }
    const std::string v2_path = TempPath("v2.pti");
    const std::string v3_path = TempPath("v3.pti");
    WriteWhole(v2_path, v2_blob);
    WriteWhole(v3_path, v3_blob);

    StatusOr<SubstringIndex> loaded = SubstringIndex();
    const double v2_ms = bench::TimeMs([&] {
      auto blob = serde::ReadFileToBlob(v2_path);
      if (!blob.ok()) std::exit(1);
      loaded = SubstringIndex::Load((*blob)->view(), *blob);
    });
    if (!loaded.ok()) std::exit(1);
    const double v3_copy_ms = bench::TimeMs([&] {
      auto blob = serde::ReadFileToBlob(v3_path);
      if (!blob.ok()) std::exit(1);
      loaded = SubstringIndex::Load((*blob)->view(), *blob);
    });
    if (!loaded.ok()) std::exit(1);
    const double v3_mmap_ms = bench::TimeMs([&] {
      auto blob = serde::MapFile(v3_path);
      if (!blob.ok()) std::exit(1);
      loaded = SubstringIndex::Load((*blob)->view(), *blob);
    });
    if (!loaded.ok()) std::exit(1);
    table.AddRow(bench::FmtInt(n),
                 {v2_ms, v3_copy_ms, v3_mmap_ms,
                  v2_blob.size() / 1048576.0, v3_blob.size() / 1048576.0});
    std::filesystem::remove(v2_path);
    std::filesystem::remove(v3_path);
  }
  // Unit avoids "MB": the size columns are deterministic, but the load
  // times need check_bench.py's timing tolerance, not the memory band.
  table.Print("File load: v2 decode vs v3 copy vs v3 mmap (compact index)",
              "ms per load / container MiB");
}

// Swap latency: a live engine reloads its generation from disk. The mmap
// column is the restart-free deploy path; the copy column is the fallback
// for filesystems where mapping is undesirable.
void RunReload(const bench::Args& args) {
  bench::Table table("n");
  table.SetColumns({"mmap ms", "copy ms"});
  for (const int64_t n : Sizes(args)) {
    const UncertainString s = MakeString(n);
    const auto built = SubstringIndex::Build(s, CompactOptions());
    if (!built.ok()) std::exit(1);
    std::string blob;
    if (!built->Save(&blob).ok()) std::exit(1);
    const std::string path = TempPath("reload.pti");
    WriteWhole(path, blob);

    auto first = SubstringIndex::Build(s, CompactOptions());
    if (!first.ok()) std::exit(1);
    ServingOptions options;
    options.num_workers = 2;
    ServingEngine engine(ShardedIndex::FromIndex(std::move(*first)),
                         options);
    const double mmap_ms = bench::TimeMs([&] {
      if (!engine.Reload(path, /*use_mmap=*/true).ok()) std::exit(1);
    });
    const double copy_ms = bench::TimeMs([&] {
      if (!engine.Reload(path, /*use_mmap=*/false).ok()) std::exit(1);
    });
    table.AddRow(bench::FmtInt(n), {mmap_ms, copy_ms});
    std::filesystem::remove(path);
  }
  table.Print("Hot reload: ServingEngine::Reload(path) swap latency",
              "ms per reload");
}

}  // namespace

void RunLoadBench(const bench::Args& args) {
  std::printf("=== bench_load ===\n");
  if (bench::RunPanel(args, "a")) RunFileLoad(args);
  if (bench::RunPanel(args, "b")) RunReload(args);
}

}  // namespace pti

int main(int argc, char** argv) {
  pti::RunLoadBench(pti::bench::ParseArgs(argc, argv));
  return 0;
}
