// Shared pieces of the repository benchmark (perfbench): the workload
// constants, the request stream with its reference digests, the set-up of
// each served index, and the replay loops that push one stream through
// one layer's public entry point.
//
// Every constant that shapes the load lives here and is never re-derived
// at run time: a rate probed from the code under test would hand a faster
// change a harder load.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/match.h"
#include "core/substring_index.h"
#include "core/uncertain_string.h"
#include "engine/request.h"
#include "engine/serving_engine.h"
#include "engine/sharded_index.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "util/status.h"

namespace perfbench {

// ---- Input (§8.1 generator) -------------------------------------------------
inline constexpr int64_t kLength = 100000;
inline constexpr double kTheta = 0.2;
inline constexpr double kTauMin = 0.1;

// ---- Set-up -------------------------------------------------------------------
/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;
/// Fixed intra-build thread count, so set-up time does not follow nproc.
inline constexpr int32_t kBuildThreads = 2;
inline constexpr int32_t kShards = 4;
inline constexpr int32_t kOverlap = 32;

// ---- Serving stack (pti_cli serve defaults, 2 workers) --------------------
inline constexpr int32_t kEngineWorkers = 2;

// ---- CPU placement (4 CPUs; see harness.h CpuPin) ---------------------------
/// Server side -- builds, engine, listener, shard fan-out, reloads -- and
/// the lib_query loop run on CPUs 1-3; the client's sender and receiver
/// share CPU 0, which nothing else uses.
inline constexpr int kServerCpu = 1;
inline constexpr int kServerCpus = 3;
inline constexpr int kSendCpu = 0;
inline constexpr int kReceiveCpu = 0;
inline constexpr int kLibCpu = 3;

// ---- Load -------------------------------------------------------------------
/// Frozen open-loop offered rates (requests/s): about a tenth of the
/// closed-loop capacity (phase B's tput_qps) the parent commit showed on a
/// 4-core x86-64 VM. At half capacity the client and server threads'
/// wake-ups alone kept the 4 cores busy enough that the p99 tracked the
/// scheduler, not the program.
inline constexpr double kHotRate = 10000.0;
inline constexpr double kColdRate = 8000.0;
/// Phase (B) sends a fixed request count: nominal capacity x its share of
/// the run, so the work (not the duration) is the same on every commit.
inline constexpr double kHotNominalQps = 90000.0;
inline constexpr double kColdNominalQps = 50000.0;
/// Share of --seconds given to phase (A); phase (B) nominally takes the rest.
inline constexpr double kOpenShare = 0.6;
/// Requests in flight during phase (B): enough to fill both workers'
/// 64-request batches, so cold batches dispatch full instead of lingering.
inline constexpr size_t kWindow = 256;
/// Equal windows each timed phase is cut into; a reported latency
/// percentile (and lib_query's throughput) is the best-quarter window
/// (harness.h SplitWindows). The net phases run each window, or phase
/// (B) segment, on a fresh connection.
inline constexpr size_t kWindows = 20;
/// Pause between phase (A)'s windows, each on its own connection: room to
/// connect and start the next window's threads before its first request
/// is due.
inline constexpr std::chrono::milliseconds kWindowGap{20};
/// net_cold's admin reloads during phase (A): one in the middle of every
/// fourth window. The reported p99 (best-quarter window) thus comes from a
/// window without one; what the reloads cost under load is printed as
/// reload_loaded_ms and shows in the windows they hit.
inline constexpr int kColdReloads = static_cast<int>(kWindows / 4);
/// Reloads each workload times on a quiet server (net: before the
/// warm-up; lib_query: plain loads after its loop); reload_ms is the
/// fastest, since outside interference only ever adds to a reload.
inline constexpr int kQuietReloads = 5;
/// Share of --seconds the lib_query closed loop runs.
inline constexpr double kLibShare = 0.9;

/// A run is invalid when the open-loop generator's p99 lateness exceeds
/// this: beyond it the harness, not the server, shaped the tail.
inline constexpr double kMaxLateP99Us = 1000.0;

// ---- Request stream -----------------------------------------------------------

/// The workload's requests in send order and the reference digest of each
/// answer, computed off the clock from the synchronous API.
struct Stream {
  std::vector<pti::Request> requests;
  std::vector<Digest> expected;
};

/// Synchronous answer of one request (exact or fuzzy).
using Answer =
    std::function<pti::Status(const pti::Request&, std::vector<pti::Match>*)>;

/// `index` (a ShardedIndex or a SubstringIndex) answering through its
/// synchronous Query / QueryFuzzy; `index` must outlive the result.
template <typename Index>
Answer AnswerWith(const Index& index) {
  return [&index](const pti::Request& r, std::vector<pti::Match>* out) {
    if (r.k == 0) return index.Query(r.pattern, r.tau, out);
    return index.QueryFuzzy(r.pattern, r.tau, {r.k, r.metric}, out);
  };
}

/// Prints "perfbench: <what>: <status>" and exits 1: every step of a
/// workload must succeed.
[[noreturn]] void Die(const std::string& what, const pti::Status& status);

/// Connects `client` to the loopback server on `port`, or dies.
void Connect(pti::net::NetClient* client, int32_t port);

/// Fills stream->expected from `answer`, on `threads` threads. Exits on a
/// failed reference query: every request of a workload must succeed.
void ComputeDigests(const Answer& answer, Stream* stream, int threads);

pti::UncertainString MakeInput(uint64_t seed);

/// net_hot: `count` requests drawn Zipf(1) from a pool of 512 exact
/// patterns of length 2..8 at tau 0.1, preceded by one pass over the pool
/// (the first `warmup` entries of the stream, returned in *warmup).
/// Digests come from `answer`.
Stream HotStream(const pti::UncertainString& s, uint64_t seed, size_t count,
                 const Answer& answer, size_t* warmup);

/// net_cold: `count` distinct exact requests, length 4..12, tau cycling
/// 0.1 / 0.2 / 0.3; no pattern repeats.
Stream ColdStream(const pti::UncertainString& s, uint64_t seed, size_t count);

/// lib_query: a fixed mix cycled by the closed loop; lengths 2..32, tau
/// cycling 0.1 / 0.2 / 0.4, every 16th request a k = 1 mismatch query.
Stream LibStream(const pti::UncertainString& s, uint64_t seed);

/// Long (m > K, m <= kOverlap + 1) exact probes and k = 1 probes at tau
/// 0.1, for the traced core layer of workloads whose own stream has none.
Stream LongProbes(const pti::UncertainString& s, uint64_t seed, int32_t k_depth,
                  size_t count);
Stream FuzzyProbes(const pti::UncertainString& s, uint64_t seed, size_t count);

// ---- Outcome tally -----------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;    ///< Unavailable: load-shed at admission
  uint64_t wrong = 0;   ///< answered OK, digest differs from the reference
  uint64_t errors = 0;  ///< any other failure

  /// Counts one answer against its reference digest; true when it is OK
  /// and matches.
  bool Add(pti::Status::Code code, const std::vector<pti::Match>& matches,
           const Digest& expected);
  /// Counts one call whose only check is its status.
  void AddStatus(const pti::Status& status);
  void Merge(const Tally& other);
  uint64_t failed() const { return shed + wrong + errors; }
};

// ---- Set-up ---------------------------------------------------------------------

/// Wall seconds of each set-up stage of one repetition.
struct SetupTimes {
  double build_s = 0.0;
  double save_s = 0.0;  ///< Save to bytes + write the file
  double load_s = 0.0;  ///< MapFile + Load
  double start_s = 0.0;  ///< engine + listener start (net workloads)
  double total_s = 0.0;
  pti::BuildTimings stages;
  double file_mib = 0.0;
  double index_mib = 0.0;  ///< MemoryUsage of the loaded index
  /// Resident set (ResidentMib) just before the load: the baseline that
  /// rss_mib, read after the timed phases, is measured from.
  double rss_base_mib = 0.0;
};

/// The net workloads' served stack: a 4-shard compact ShardedIndex saved
/// as v3, mmap-loaded, behind a ServingEngine and a loopback NetServer.
struct NetStack {
  std::unique_ptr<pti::ServingEngine> engine;
  std::unique_ptr<pti::net::NetServer> server;
};

/// pti_cli serve defaults with kEngineWorkers workers; `cache` false turns
/// the result cache off.
pti::ServingOptions EngineOptions(bool cache = true);

/// One set-up repetition of the net stack over `s`; the file goes to
/// `path`. Exits on failure.
SetupTimes SetupNet(const pti::UncertainString& s, const std::string& path,
                    NetStack* stack);

/// One set-up repetition of lib_query: a tree-mode SubstringIndex built,
/// saved as v3 to `path` and mmap-loaded into *index.
SetupTimes SetupLib(const pti::UncertainString& s, const std::string& path,
                    pti::SubstringIndex* index);

/// Maps `path` and loads it as a sharded index, as ServingEngine::Reload
/// does. Exits on failure.
pti::ShardedIndex LoadSharded(const std::string& path, int32_t threads);
pti::SubstringIndex LoadSubstring(const std::string& path);

/// Resident set of this process, MiB, after returning freed heap memory
/// to the system (malloc_trim), so what allocator arenas happen to retain
/// does not count.
double ResidentMib();

// ---- Replays ------------------------------------------------------------------

/// Per-request figures of one replay, in stream order. latency_us and
/// done_s hold only answers that were OK and matched their digest: a shed,
/// failed, wrong or never-received answer counts in the tally (and fails
/// the run) but is never timed as a completion.
struct Replay {
  std::vector<double> latency_us;  ///< due (or call) instant -> answer
  std::vector<double> late_us;     ///< generator lateness per request
                                   ///< (open loop; lib: gap between calls)
  std::vector<double> done_s;      ///< answer, seconds from the start
  Tally tally;
  double elapsed_s = 0.0;  ///< first due/send -> last answer
};

/// Open loop over one pipelined connection: requests [begin, begin+count)
/// of `stream`, request i due at t0 + i / rate. A receiver thread checks
/// each answer and times it from its due instant. Latencies stay in
/// request order, so windows of them are windows of the schedule.
/// With a trace, each answer also records a "net.rtt" span (send ->
/// answer).
Replay NetOpenLoop(int32_t port, const Stream& stream, size_t begin,
                   size_t count, double rate, Clock::time_point t0,
                   Trace* trace = nullptr);

/// Closed loop over one pipelined connection with `window` requests in
/// flight; "net.rtt" spans as above.
Replay NetClosedLoop(int32_t port, const Stream& stream, size_t begin,
                     size_t count, size_t window, Trace* trace = nullptr);

/// In-process Submit().get(): open loop at `rate`, or one at a time when
/// rate is 0. With a trace, records a `layer` span per request (Submit
/// call -> result in hand).
Replay EngineLoop(pti::ServingEngine* engine, const Stream& stream,
                  size_t begin, size_t count, double rate,
                  Trace* trace = nullptr,
                  const char* layer = "engine.submit");

/// Synchronous closed loop straight into one index for `seconds`, cycling
/// through the stream. Late figures are the harness's gap between calls.
/// With a trace, records a "core" (exact) or "fuzzy" span per call whose
/// work is the match count.
Replay IndexLoop(const Answer& answer, const Stream& stream, double seconds,
                 Trace* trace = nullptr);

// ---- Runs ----------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = ".";  ///< where the index files go
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  ///< 0 when the metric is not a sample statistic
};

/// What one run measured and whether it counts.
struct Report {
  std::vector<Metric> metrics;
  Tally tally;
  /// Reasons the run does not count (harness health); empty when valid.
  std::vector<std::string> invalid;
  /// Human-readable remarks printed with the metrics.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
};

Report RunNetHot(const Args& args);
Report RunNetCold(const Args& args);
Report RunLibQuery(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
