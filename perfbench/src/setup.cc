// Inputs, request streams, reference digests and index set-up.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "bench.h"
#include "core/serde.h"
#include "datagen/datagen.h"
#include "util/rng.h"

namespace perfbench {

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Mib(size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL + salt;
}

pti::Request Exact(std::string pattern, double tau) {
  pti::Request r;
  r.pattern = std::move(pattern);
  r.tau = tau;
  return r;
}

}  // namespace

void Die(const std::string& what, const pti::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

void Connect(pti::net::NetClient* client, int32_t port) {
  const pti::Status st = client->Connect("127.0.0.1", port);
  if (!st.ok()) Die("connect", st);
}

void ComputeDigests(const Answer& answer, Stream* stream, int threads) {
  const size_t n = stream->requests.size();
  stream->expected.assign(n, Digest{});
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  const auto work = [&] {
    std::vector<pti::Match> matches;
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const pti::Status st = answer(stream->requests[i], &matches);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: reference query '%s' tau %g k %d: "
                     "%s\n", stream->requests[i].pattern.c_str(),
                     stream->requests[i].tau, stream->requests[i].k,
                     st.ToString().c_str());
        failed.store(true);
        return;
      }
      stream->expected[i] = DigestOf(matches);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
  if (failed.load()) std::exit(1);
}

pti::UncertainString MakeInput(uint64_t seed) {
  pti::DatasetOptions data;
  data.length = kLength;
  data.theta = kTheta;
  data.seed = SubSeed(seed, 1);
  return pti::GenerateUncertainString(data);
}

Stream HotStream(const pti::UncertainString& s, uint64_t seed, size_t count,
                 const Answer& answer, size_t* warmup) {
  constexpr size_t kPoolBits = 9;
  constexpr size_t kPool = size_t{1} << kPoolBits;  // 512
  constexpr double kTau = 0.1;
  Stream pool;
  std::unordered_set<std::string> seen;
  for (uint64_t round = 0; pool.requests.size() < kPool; ++round) {
    for (size_t len = 2; len <= 8 && pool.requests.size() < kPool; ++len) {
      for (auto& p : pti::SamplePatterns(s, 16, len,
                                         SubSeed(seed, 100 + round * 16 + len))) {
        if (pool.requests.size() < kPool && seen.insert(p).second) {
          pool.requests.push_back(Exact(std::move(p), kTau));
        }
      }
    }
  }
  ComputeDigests(answer, &pool, 3);
  // Zipf(1) over ranks. Rank r maps to the pool entry at the bit-reversed
  // position of r in answer-size order, so the hot head always spans the
  // answer sizes at the same quantiles (0, 1/2, 1/4, 3/4, ...) and the
  // traffic's answer-size mix does not swing with the seed.
  std::vector<size_t> by_size(kPool);
  for (size_t i = 0; i < kPool; ++i) by_size[i] = i;
  std::stable_sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
    return pool.expected[a].count < pool.expected[b].count;
  });
  std::vector<size_t> rank_to_pool(kPool);
  for (size_t r = 0; r < kPool; ++r) {
    size_t reversed = 0;
    for (size_t bit = 0; bit < kPoolBits; ++bit) {
      reversed |= ((r >> bit) & 1u) << (kPoolBits - 1 - bit);
    }
    rank_to_pool[r] = by_size[reversed];
  }
  std::vector<double> cdf(kPool);
  double total = 0.0;
  for (size_t r = 0; r < kPool; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  pti::Rng rng(SubSeed(seed, 2));
  Stream stream = pool;  // the warm-up pass comes first
  stream.requests.reserve(kPool + count);
  stream.expected.reserve(kPool + count);
  for (size_t i = 0; i < count; ++i) {
    const double u = rng.UniformDouble() * total;
    const size_t r = std::min<size_t>(
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin()),
        kPool - 1);
    stream.requests.push_back(pool.requests[rank_to_pool[r]]);
    stream.expected.push_back(pool.expected[rank_to_pool[r]]);
  }
  *warmup = kPool;
  return stream;
}

Stream ColdStream(const pti::UncertainString& s, uint64_t seed, size_t count) {
  constexpr double kTaus[] = {0.1, 0.2, 0.3};
  constexpr size_t kMinLen = 4;
  constexpr size_t kLengths = 9;  // 4..12
  // Draw per length until each holds its share of distinct patterns.
  const size_t per_length = (count + kLengths - 1) / kLengths;
  std::unordered_set<std::string> seen;
  std::vector<std::vector<std::string>> by_length(kLengths);
  for (size_t l = 0; l < kLengths; ++l) {
    for (uint64_t round = 0; by_length[l].size() < per_length; ++round) {
      if (round == 64) {
        std::fprintf(stderr, "perfbench: too few distinct length-%zu "
                     "patterns\n", kMinLen + l);
        std::exit(1);
      }
      for (auto& p : pti::SamplePatterns(s, per_length, kMinLen + l,
                                         SubSeed(seed, 1000 + round * 64 + l))) {
        if (by_length[l].size() < per_length && seen.insert(p).second) {
          by_length[l].push_back(std::move(p));
        }
      }
    }
  }
  Stream stream;
  stream.requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    stream.requests.push_back(
        Exact(std::move(by_length[i % kLengths][i / kLengths]),
              kTaus[(i / kLengths) % 3]));
  }
  // Interleave lengths and taus in a seeded order.
  pti::Rng rng(SubSeed(seed, 3));
  for (size_t i = count - 1; i > 0; --i) {
    std::swap(stream.requests[i], stream.requests[rng.Uniform(i + 1)]);
  }
  return stream;
}

Stream LibStream(const pti::UncertainString& s, uint64_t seed) {
  constexpr double kTaus[] = {0.1, 0.2, 0.4};
  constexpr size_t kMinLen = 2;
  constexpr size_t kLengths = 31;  // 2..32
  // 31 lengths x 3 taus x 16 (fuzzy every 16th), eight times over: enough
  // distinct patterns that the mix's cost does not swing with the seed.
  constexpr size_t kCount = kLengths * 3 * 16 * 8;
  std::vector<std::vector<std::string>> by_length(kLengths);
  for (size_t l = 0; l < kLengths; ++l) {
    by_length[l] = pti::SamplePatterns(s, kCount / kLengths + 1, kMinLen + l,
                                       SubSeed(seed, 3000 + l));
  }
  Stream stream;
  for (size_t i = 0; i < kCount; ++i) {
    pti::Request r = Exact(by_length[i % kLengths][i / kLengths], kTaus[i % 3]);
    if (i % 16 == 15) r.k = 1;  // kMismatch is the Request default
    stream.requests.push_back(std::move(r));
  }
  return stream;
}

Stream LongProbes(const pti::UncertainString& s, uint64_t seed,
                  int32_t k_depth, size_t count) {
  const size_t lo = static_cast<size_t>(k_depth) + 1;
  const size_t hi = static_cast<size_t>(kOverlap) + 1;
  Stream stream;
  for (size_t len = lo; len <= hi && stream.requests.size() < count; ++len) {
    const size_t want = count / (hi - lo + 1) + 1;
    for (auto& p : pti::SamplePatterns(s, want, len, SubSeed(seed, 5000 + len))) {
      if (stream.requests.size() < count) {
        stream.requests.push_back(Exact(std::move(p), 0.1));
      }
    }
  }
  return stream;
}

Stream FuzzyProbes(const pti::UncertainString& s, uint64_t seed, size_t count) {
  Stream stream;
  for (size_t i = 0; i < count; ++i) {
    auto p = pti::SamplePatterns(s, 1, 4 + i % 9, SubSeed(seed, 7000 + i));
    pti::Request r = Exact(std::move(p[0]), 0.1);
    r.k = 1;
    stream.requests.push_back(std::move(r));
  }
  return stream;
}

bool Tally::Add(pti::Status::Code code, const std::vector<pti::Match>& matches,
                const Digest& expected) {
  ++attempted;
  if (code == pti::Status::Code::kUnavailable) {
    ++shed;
  } else if (code != pti::Status::Code::kOk) {
    ++errors;
  } else if (DigestOf(matches) != expected) {
    ++wrong;
  } else {
    ++ok;
    return true;
  }
  return false;
}

void Tally::AddStatus(const pti::Status& status) {
  ++attempted;
  if (status.ok()) {
    ++ok;
  } else {
    ++errors;
  }
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  ok += other.ok;
  shed += other.shed;
  wrong += other.wrong;
  errors += other.errors;
}

pti::ServingOptions EngineOptions(bool cache) {
  pti::ServingOptions options;  // pti_cli serve defaults
  options.max_batch = 64;
  options.linger_us = 200;
  options.cache_bytes = cache ? size_t{16} << 20 : 0;
  options.num_workers = kEngineWorkers;
  return options;
}

namespace {

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) Die("write " + path, pti::Status::IOError("short write"));
}

pti::serde::BlobPtr Map(const std::string& path) {
  auto blob = pti::serde::MapFile(path);
  if (!blob.ok()) Die("map " + path, blob.status());
  return std::move(blob).value();
}

}  // namespace

pti::ShardedIndex LoadSharded(const std::string& path, int32_t threads) {
  pti::serde::BlobPtr blob = Map(path);
  auto index = pti::ShardedIndex::Load(blob->view(), threads, blob);
  if (!index.ok()) Die("load " + path, index.status());
  return std::move(index).value();
}

pti::SubstringIndex LoadSubstring(const std::string& path) {
  pti::serde::BlobPtr blob = Map(path);
  auto index = pti::SubstringIndex::Load(blob->view(), blob);
  if (!index.ok()) Die("load " + path, index.status());
  return std::move(index).value();
}

SetupTimes SetupNet(const pti::UncertainString& s, const std::string& path,
                    NetStack* stack) {
  SetupTimes t;
  const auto start = Clock::now();
  pti::ShardedIndexOptions options;
  options.index.transform.tau_min = kTauMin;
  options.index.compact = true;
  options.num_shards = kShards;
  options.overlap = kOverlap;
  options.num_threads = kBuildThreads;
  options.build_timings = &t.stages;
  {
    auto built = pti::ShardedIndex::Build(s, options);
    if (!built.ok()) Die("sharded build", built.status());
    t.build_s = SecondsSince(start);

    const auto stage = Clock::now();
    std::string bytes;
    const pti::Status saved = built.value().Save(&bytes, 3);
    if (!saved.ok()) Die("sharded save", saved);
    WriteFile(path, bytes);
    t.file_mib = Mib(bytes.size());
    t.save_s = SecondsSince(stage);
  }  // the built index and its bytes are freed before the load

  // Load with the thread count ServingEngine::Reload uses (0: one per
  // hardware thread), so every generation the engine serves, initial or
  // reloaded, has the same fan-out shape.
  t.rss_base_mib = ResidentMib();
  auto stage = Clock::now();
  pti::ShardedIndex index = LoadSharded(path, 0);
  t.load_s = SecondsSince(stage);
  t.index_mib = Mib(index.MemoryUsage());

  stage = Clock::now();
  stack->engine =
      std::make_unique<pti::ServingEngine>(std::move(index), EngineOptions());
  stack->server = std::make_unique<pti::net::NetServer>(stack->engine.get());
  const pti::Status started = stack->server->Start();
  if (!started.ok()) Die("listen", started);
  t.start_s = SecondsSince(stage);
  t.total_s = SecondsSince(start);
  return t;
}

SetupTimes SetupLib(const pti::UncertainString& s, const std::string& path,
                    pti::SubstringIndex* index) {
  SetupTimes t;
  const auto start = Clock::now();
  pti::IndexOptions options;
  options.transform.tau_min = kTauMin;
  pti::BuildOptions build;
  build.threads = kBuildThreads;
  build.timings = &t.stages;
  {
    auto built = pti::SubstringIndex::Build(s, options, build);
    if (!built.ok()) Die("build", built.status());
    t.build_s = SecondsSince(start);

    const auto stage = Clock::now();
    std::string bytes;
    const pti::Status saved = built.value().Save(&bytes, 3);
    if (!saved.ok()) Die("save", saved);
    WriteFile(path, bytes);
    t.file_mib = Mib(bytes.size());
    t.save_s = SecondsSince(stage);
  }  // the built index and its bytes are freed before the load

  *index = pti::SubstringIndex();  // and the previous repetition's index
  t.rss_base_mib = ResidentMib();
  const auto stage = Clock::now();
  *index = LoadSubstring(path);
  t.load_s = SecondsSince(stage);
  t.index_mib = Mib(index->MemoryUsage());
  t.total_s = SecondsSince(start);
  return t;
}

double ResidentMib() {
  malloc_trim(0);
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
