// Fuzzy (k-error) threshold query benchmarks (not a paper figure): what the
// two indexed fuzzy paths buy over the brute-force oracle, and what fuzzy
// costs relative to exact queries.
//
//   (a) k-mismatch latency: tree seed-and-extend vs compact FM branching
//       backward search vs the BruteForceFuzzy oracle, across pattern
//       lengths at k=1.
//   (b) k-edit latency: the same comparison under edit distance, where the
//       branching factor (insertions/deletions) is larger.
//   (c) batch vs loop: QueryBatch's grouped enumeration (one variant
//       walk per distinct (pattern, metric, k) at the group-min tau)
//       against a one-at-a-time loop, at k=1 and k=2.
//   (d) k=0 overhead: QueryFuzzy with k=0 delegates to the exact Query
//       path; this panel keeps that delegation free.
//
// Brute force is linear in n with a per-position variant enumeration, so
// its columns dominate the runtime; the pattern counts are kept small.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/fuzzy.h"
#include "core/substring_index.h"
#include "datagen/datagen.h"

namespace pti {
namespace {

constexpr double kTheta = 0.2;
constexpr double kTauMin = 0.1;
constexpr double kTau = 0.2;

UncertainString MakeInput(int64_t n) {
  DatasetOptions data;
  data.length = n;
  data.theta = kTheta;
  data.seed = 73;
  return GenerateUncertainString(data);
}

SubstringIndex BuildIndex(const UncertainString& s, bool compact) {
  IndexOptions options;
  options.transform.tau_min = kTauMin;
  options.compact = compact;
  auto index = SubstringIndex::Build(s, options);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 index.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(index).value();
}

// Per-query latency of the three implementations for one (metric, k).
void LatencyPanel(bool full, FuzzyMetric metric, const char* title) {
  const int64_t n = full ? 100000 : 20000;
  const UncertainString s = MakeInput(n);
  const SubstringIndex tree = BuildIndex(s, /*compact=*/false);
  const SubstringIndex comp = BuildIndex(s, /*compact=*/true);
  FuzzyParams params;
  params.k = 1;
  params.metric = metric;

  bench::Table table("m");
  table.SetColumns({"tree", "compact", "brute"});
  for (const size_t m : {4, 8, 16}) {
    const auto patterns = SamplePatterns(s, 12, m, 9000 + m);
    const double per = static_cast<double>(patterns.size());
    std::vector<Match> out;
    std::vector<double> row;
    for (const SubstringIndex* index : {&tree, &comp}) {
      for (const auto& p : patterns) {
        (void)index->QueryFuzzy(p, kTau, params, &out);
      }
      const double ms = bench::TimeMs([&] {
        for (const auto& p : patterns) {
          (void)index->QueryFuzzy(p, kTau, params, &out);
        }
      });
      row.push_back(ms * 1000.0 / per);
    }
    const double brute_ms = bench::TimeMs([&] {
      for (const auto& p : patterns) (void)BruteForceFuzzy(s, p, kTau, params);
    });
    row.push_back(brute_ms * 1000.0 / per);
    table.AddRow(std::to_string(m), row);
  }
  table.Print(title, "us/query");
}

void PanelC(bool full) {
  const int64_t n = full ? 100000 : 20000;
  constexpr size_t kBatch = 64;
  const UncertainString s = MakeInput(n);
  const SubstringIndex index = BuildIndex(s, /*compact=*/true);
  // 16 distinct patterns, each queried at 4 taus: the batch path walks the
  // variant space once per (pattern, metric, k) group at the group-min tau
  // and re-filters, so repeats are where it wins over the loop.
  const auto patterns = SamplePatterns(s, kBatch / 4, 8, 9100);

  bench::Table table("k");
  table.SetColumns({"loop", "batch", "speedup"});
  for (const int32_t k : {1, 2}) {
    FuzzyParams params;
    params.k = k;
    std::vector<BatchQuery> queries;
    for (size_t i = 0; i < kBatch; ++i) {
      queries.push_back(
          {patterns[i % patterns.size()],
           kTau + 0.001 * static_cast<double>(i % 4), params});
    }
    std::vector<Match> out;
    std::vector<std::vector<Match>> batch_out;
    (void)index.QueryBatch(queries, &batch_out);
    for (const auto& q : queries) {
      (void)index.QueryFuzzy(q.pattern, q.tau, q.params, &out);
    }
    double loop_ms = 1e300, batch_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      loop_ms = std::min(loop_ms, bench::TimeMs([&] {
        for (const auto& q : queries) {
          (void)index.QueryFuzzy(q.pattern, q.tau, q.params, &out);
        }
      }));
      batch_ms = std::min(batch_ms, bench::TimeMs([&] {
        (void)index.QueryBatch(queries, &batch_out);
      }));
    }
    const double per = static_cast<double>(queries.size());
    table.AddRow("k=" + std::to_string(k),
                 {loop_ms * 1000.0 / per, batch_ms * 1000.0 / per,
                  loop_ms / batch_ms});
  }
  table.Print("Fuzzy (c): batch vs loop, compact index "
              "(64 mismatch patterns, mixed taus)",
              "us/query; speedup is a ratio");
}

void PanelD(bool full) {
  const int64_t n = full ? 100000 : 20000;
  const UncertainString s = MakeInput(n);
  const SubstringIndex index = BuildIndex(s, /*compact=*/false);
  FuzzyParams params;
  params.k = 0;

  bench::Table table("m");
  table.SetColumns({"exact", "fuzzy k=0", "speedup"});
  for (const size_t m : {4, 8, 16}) {
    const auto patterns = SamplePatterns(s, 100, m, 9200 + m);
    const double per = static_cast<double>(patterns.size());
    std::vector<Match> out;
    for (const auto& p : patterns) (void)index.Query(p, kTau, &out);
    double exact_ms = 1e300, fuzzy_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      exact_ms = std::min(exact_ms, bench::TimeMs([&] {
        for (const auto& p : patterns) (void)index.Query(p, kTau, &out);
      }));
      fuzzy_ms = std::min(fuzzy_ms, bench::TimeMs([&] {
        for (const auto& p : patterns) {
          (void)index.QueryFuzzy(p, kTau, params, &out);
        }
      }));
    }
    table.AddRow(std::to_string(m),
                 {exact_ms * 1000.0 / per, fuzzy_ms * 1000.0 / per,
                  exact_ms / fuzzy_ms});
  }
  table.Print("Fuzzy (d): k=0 delegation overhead vs exact Query",
              "us/query; speedup is a ratio");
}

}  // namespace

void RunFuzzy(const bench::Args& args) {
  std::printf("=== bench_fuzzy (%s scale) ===\n",
              args.full ? "paper" : "default");
  if (bench::RunPanel(args, "a")) {
    LatencyPanel(args.full, FuzzyMetric::kMismatch,
                 "Fuzzy (a): k=1 mismatch latency, tree vs compact vs brute");
  }
  if (bench::RunPanel(args, "b")) {
    LatencyPanel(args.full, FuzzyMetric::kEdit,
                 "Fuzzy (b): k=1 edit latency, tree vs compact vs brute");
  }
  if (bench::RunPanel(args, "c")) PanelC(args.full);
  if (bench::RunPanel(args, "d")) PanelD(args.full);
}

}  // namespace pti

int main(int argc, char** argv) {
  pti::RunFuzzy(pti::bench::ParseArgs(argc, argv));
  return 0;
}
