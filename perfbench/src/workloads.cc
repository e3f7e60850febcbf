// The three workloads: net_hot and net_cold over the loopback TCP stack,
// lib_query straight into a tree-mode index. Each run measures either the
// end-to-end metrics (untraced) or, replaying the same kind of stream
// through each layer's public entry point, the per-layer metrics (traced).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "net/client.h"
#include "net/protocol.h"

namespace perfbench {

namespace {

/// Index file of this run inside the data directory, removed on exit
/// (an mmap'd file may be unlinked while mapped).
class IndexFile {
 public:
  IndexFile(const Args& args, const char* tag)
      : path_(args.data_dir + "/" + tag + "-" + std::to_string(getpid()) +
              ".pti") {}
  ~IndexFile() { std::remove(path_.c_str()); }
  IndexFile(const IndexFile&) = delete;
  IndexFile& operator=(const IndexFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

template <typename Field>
double MedianOf(const std::vector<SetupTimes>& reps, Field field) {
  std::vector<double> values;
  for (const SetupTimes& t : reps) values.push_back(field(t));
  return Median(values);
}

void AddSetup(const std::vector<SetupTimes>& reps, bool trace,
              Report* report) {
  report->Add("setup_s", MedianOf(reps, [](auto& t) { return t.total_s; }),
              "s", reps.size());
  if (!trace) return;
  const auto add = [&](const char* name, const char* unit, auto field) {
    report->Add(name, MedianOf(reps, field), unit, reps.size());
  };
  add("build.s", "s", [](auto& t) { return t.build_s; });
  add("build.transform_ms", "ms", [](auto& t) { return t.stages.transform_ms; });
  add("build.sa_ms", "ms", [](auto& t) { return t.stages.sa_ms; });
  add("build.lcp_ms", "ms", [](auto& t) { return t.stages.lcp_ms; });
  add("build.fm_ms", "ms", [](auto& t) { return t.stages.fm_ms; });
  add("build.derived_ms", "ms", [](auto& t) { return t.stages.derived_ms; });
  add("build.rmq_ms", "ms", [](auto& t) { return t.stages.rmq_ms; });
  add("serde.save_s", "s", [](auto& t) { return t.save_s; });
  add("serde.load_s", "s", [](auto& t) { return t.load_s; });
  add("serde.file_mib", "MiB", [](auto& t) { return t.file_mib; });
  add("mem.index_mib", "MiB", [](auto& t) { return t.index_mib; });
}

/// p50/p99 under `prefix`; a p99 without kMinBeyond samples beyond it
/// makes the run invalid.
void AddLatency(const std::string& prefix, std::vector<double> values,
                Report* report) {
  const Quantile p50 = Percentile(&values, 0.5);
  const Quantile p99 = Percentile(&values, 0.99);
  report->Add(prefix + "p50_us", p50.value, "us", p50.samples);
  report->Add(prefix + "p99_us", p99.value, "us", p99.samples);
  if (!Supported(p99)) {
    report->invalid.push_back(prefix + "p99_us rests on " +
                              std::to_string(p99.beyond) +
                              " samples beyond it (needs " +
                              std::to_string(kMinBeyond) + ")");
  }
}

/// End-to-end p50/p99, each the best-quarter window of kWindows
/// (harness.h SplitWindows), and tput_qps as measured by the caller. A
/// window p99 without kMinBeyond samples beyond it makes the run invalid.
void AddEndToEnd(const Replay& latency, double tput, size_t tput_requests,
                 Report* report) {
  const Windowed w =
      SplitWindows(latency.latency_us, latency.done_s, kWindows);
  report->Add("p50_us", w.p50, "us", latency.latency_us.size());
  report->Add("p99_us", w.p99, "us", latency.latency_us.size());
  report->Add("tput_qps", tput, "1/s", tput_requests);
  report->notes.push_back("p50_us/p99_us: best quarter of " +
                          std::to_string(w.windows) + " windows of >= " +
                          std::to_string(w.per_window) + " samples");
  if (w.min_beyond < kMinBeyond) {
    report->invalid.push_back("a window p99 rests on " +
                              std::to_string(w.min_beyond) +
                              " samples beyond it (needs " +
                              std::to_string(kMinBeyond) + ")");
  }
}

/// Generator health: a run whose open-loop sender fell further behind its
/// schedule than kMaxLateP99Us does not count.
void AddLateness(std::vector<double> late, bool open_loop, Report* report) {
  const Quantile q = Percentile(&late, 0.99);
  report->Add("gen.late_p99_us", q.value, "us", q.samples);
  if (open_loop && q.value > kMaxLateP99Us) {
    report->invalid.push_back("generator ran " + std::to_string(q.value) +
                              " us behind schedule at p99 (limit " +
                              std::to_string(kMaxLateP99Us) + ")");
  }
}

void AddOverhead(const Replay& plain, const Replay& traced, Report* report) {
  const double base = Median(plain.latency_us);
  const double with = Median(traced.latency_us);
  if (base <= 0.0 || plain.latency_us.empty() || traced.latency_us.empty()) {
    report->invalid.push_back("trace.overhead_pct could not be measured");
    return;
  }
  report->Add("trace.overhead_pct", 100.0 * (with - base) / base, "%");
}

void AddEngineStats(const pti::ServingEngine::Stats& before,
                    const pti::ServingEngine::Stats& after, Report* report) {
  const double batches = static_cast<double>(after.batches - before.batches);
  const double batched =
      static_cast<double>(after.batched_queries - before.batched_queries);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  report->Add("engine.batch_mean", batches > 0 ? batched / batches : 0.0,
              "queries");
  report->Add("engine.shed", static_cast<double>(after.shed - before.shed),
              "count");
  report->Add("engine.fallback_queries",
              static_cast<double>(after.fallback_queries -
                                  before.fallback_queries),
              "count");
  report->Add("cache.hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report->Add("cache.evictions",
              static_cast<double>(after.cache_evictions -
                                  before.cache_evictions),
              "count");
}

/// net.encode_us / net.decode_us / net.result_bytes_mean: EncodeResult,
/// then DecodeHeader + DecodeFrame, replayed on the workload's answers.
/// Decoded answers are checked against their reference digests.
void AddCodec(const std::vector<std::vector<pti::Match>>& answers,
              const std::vector<Digest>& expected, Report* report) {
  std::vector<std::string> frames;
  frames.reserve(answers.size());
  const auto t0 = Clock::now();
  for (size_t i = 0; i < answers.size(); ++i) {
    frames.push_back(pti::net::EncodeResult(i, pti::Status::OK(), answers[i]));
  }
  const auto t1 = Clock::now();
  std::vector<pti::net::Frame> decoded(frames.size());
  std::vector<bool> decoded_ok(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    uint32_t len = 0;
    pti::Status st = pti::net::DecodeHeader(frames[i].data(), &len);
    if (st.ok()) {
      st = pti::net::DecodeFrame(
          std::string_view(frames[i]).substr(pti::net::kFrameHeaderBytes, len),
          &decoded[i]);
    }
    decoded_ok[i] = st.ok();
  }
  const auto t2 = Clock::now();
  double bytes = 0.0;
  for (size_t i = 0; i < frames.size(); ++i) {
    bytes += static_cast<double>(frames[i].size());
    ++report->tally.attempted;
    if (decoded_ok[i] && DigestOf(decoded[i].matches) == expected[i]) {
      ++report->tally.ok;
    } else {
      ++report->tally.wrong;
    }
  }
  const double n = static_cast<double>(std::max<size_t>(frames.size(), 1));
  report->Add("net.encode_us", ToUs(t1 - t0) / n, "us", frames.size());
  report->Add("net.decode_us", ToUs(t2 - t1) / n, "us", frames.size());
  report->Add("net.result_bytes_mean", bytes / n, "bytes", frames.size());
}

/// Core-layer figures from "core" (exact) and "fuzzy" spans: percentiles,
/// the t = a + b * occ fit over exact calls, and the m > K subset (plus
/// any "core.long_probe" spans).
void AddCore(Trace& trace, const std::vector<size_t>& span_len,
             int32_t k_depth, Report* report) {
  const uint32_t core = trace.Layer("core");
  const uint32_t fuzzy = trace.Layer("fuzzy");
  const uint32_t probe = trace.Layer("core.long_probe");
  std::vector<double> all, occ, longs, fuzz;
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const SpanRecord& s = trace.spans()[i];
    const double us = ToUs(s.end - s.start);
    if (s.layer == core) {
      all.push_back(us);
      occ.push_back(s.work);
      if (span_len[i] > static_cast<size_t>(k_depth)) longs.push_back(us);
    } else if (s.layer == probe) {
      longs.push_back(us);
    } else if (s.layer == fuzzy) {
      fuzz.push_back(us);
    }
  }
  const LinearFit fit = FitLine(occ, all);
  AddLatency("core.query_", all, report);
  report->Add("core.fixed_us", fit.intercept, "us", fit.n);
  report->Add("core.per_match_us", fit.slope, "us", fit.n);
  report->Add("core.matches_mean", Mean(occ), "matches", occ.size());
  report->Add("core.long_p50_us", Median(longs), "us", longs.size());
  report->Add("fuzzy.query_p50_us", Median(fuzz), "us", fuzz.size());
}

/// Pattern length of every span so far, for AddCore's m > K split.
void NoteLengths(const Trace& trace, const Stream& stream,
                 std::vector<size_t>* span_len) {
  for (size_t i = span_len->size(); i < trace.spans().size(); ++i) {
    span_len->push_back(
        stream.requests[trace.spans()[i].request].pattern.size());
  }
}

/// Runs each probe once per shard under `layer`; probes carry no digest,
/// but each call must succeed.
void RunProbes(const pti::ShardedIndex& index, const Stream& probes,
               const char* layer, Trace* trace, std::vector<size_t>* span_len,
               Report* report) {
  const uint32_t id = trace->Layer(layer);
  std::vector<pti::Match> matches;
  for (size_t i = 0; i < probes.requests.size(); ++i) {
    const pti::Request& r = probes.requests[i];
    for (int32_t k = 0; k < index.num_shards(); ++k) {
      const auto start = Clock::now();
      const pti::Status st = AnswerWith(index.shard(k))(r, &matches);
      trace->Record(id, i, start, Clock::now(), -1,
                    static_cast<double>(matches.size()));
      span_len->push_back(r.pattern.size());
      report->tally.AddStatus(st);
    }
  }
}

/// Sync replay one layer down from the engine: each request through
/// ShardedIndex::Query ("sharded"), then through every shard(k).Query as
/// children of that span ("core", or `child_layer`). Returns the answers.
std::vector<std::vector<pti::Match>> ShardedReplay(
    const pti::ShardedIndex& index, const Stream& stream, size_t begin,
    size_t count, const char* child_layer, Trace* trace,
    std::vector<size_t>* span_len, Report* report) {
  const uint32_t sharded = trace->Layer("sharded");
  const uint32_t child = trace->Layer(child_layer);
  const Answer whole = AnswerWith(index);
  std::vector<std::vector<pti::Match>> answers(count);
  std::vector<pti::Match> local;
  for (size_t i = 0; i < count; ++i) {
    const pti::Request& r = stream.requests[begin + i];
    const auto start = Clock::now();
    const pti::Status st = whole(r, &answers[i]);
    const int32_t parent = trace->Record(sharded, begin + i, start,
                                         Clock::now(), -1,
                                         static_cast<double>(answers[i].size()));
    report->tally.Add(st.code(), answers[i], stream.expected[begin + i]);
    for (int32_t k = 0; k < index.num_shards(); ++k) {
      const auto s0 = Clock::now();
      const pti::Status shard_st = AnswerWith(index.shard(k))(r, &local);
      trace->Record(child, begin + i, s0, Clock::now(), parent,
                    static_cast<double>(local.size()));
      report->tally.AddStatus(shard_st);
    }
  }
  NoteLengths(*trace, stream, span_len);
  return answers;
}

/// Layer percentiles and self times by difference. `engine_miss` names
/// the engine spans whose requests missed the cache, the ones
/// engine.self_p50_us holds against the sync "sharded" replay.
void AddLayerDiffs(Trace& t, const char* engine_miss, Report* report) {
  auto net = t.DurationsUs(t.Layer("net.rtt"));
  auto engine = t.DurationsUs(t.Layer("engine.submit"));
  const auto sharded = t.DurationsUs(t.Layer("sharded"));
  const auto sharded_self = t.SelfUs(t.Layer("sharded"));
  AddLatency("net.rtt_", net, report);
  AddLatency("engine.submit_", engine, report);
  const double sharded_p50 = Median(sharded);
  report->Add("net.self_p50_us", Median(net) - Median(engine), "us");
  report->Add("engine.self_p50_us",
              Median(t.DurationsUs(t.Layer(engine_miss))) - sharded_p50, "us");
  report->Add("sharded.query_p50_us", sharded_p50, "us", sharded.size());
  report->Add("sharded.self_p50_us", Median(sharded_self), "us",
              sharded_self.size());
}

/// reload.load_ms (the load alone, as ServingEngine::Reload does it; the
/// fastest of kQuietReloads like reload_ms) and reload.self_ms (admin
/// round trip minus the load timed just before it, median over pairs:
/// loads vary by tens of ms, and pairing keeps drift out of the
/// difference).
template <typename LoadFn>
void AddReload(int32_t port, const std::string& path, LoadFn load,
               Report* report) {
  pti::net::NetClient admin;
  Connect(&admin, port);
  std::vector<double> load_ms, self_ms;
  for (int i = 0; i < kQuietReloads; ++i) {
    auto t0 = Clock::now();
    {
      const auto loaded = load();  // freed after the clock stops
      load_ms.push_back(Ms(Clock::now() - t0));
    }
    t0 = Clock::now();
    const pti::Status st = admin.Reload(path, true);
    self_ms.push_back(Ms(Clock::now() - t0) - load_ms.back());
    report->tally.AddStatus(st);
  }
  report->Add("reload.load_ms",
              *std::min_element(load_ms.begin(), load_ms.end()), "ms",
              load_ms.size());
  report->Add("reload.self_ms", Median(self_ms), "ms", self_ms.size());
}

size_t Count(double rate, double seconds) {
  return std::max<size_t>(static_cast<size_t>(rate * seconds), 1);
}

/// A net run's reference index (a second load of the served file) and its
/// request stream with digests; the first `warm` requests are the untimed
/// warm-up, `timed` more follow.
struct NetInputs {
  pti::ShardedIndex reference;
  Stream stream;
  size_t warm = 0;
};

NetInputs PrepareNet(const pti::UncertainString& input,
                     const std::string& path, uint64_t seed, bool hot,
                     size_t timed) {
  NetInputs in;
  in.reference = LoadSharded(path, 0);
  if (hot) {
    in.stream =
        HotStream(input, seed, timed, AnswerWith(in.reference), &in.warm);
  } else {
    in.warm = 2000;
    in.stream = ColdStream(input, seed, in.warm + timed);
    ComputeDigests(AnswerWith(in.reference), &in.stream, 3);
  }
  return in;
}

/// The untraced net run: reloads on the quiet server (reload_ms), the
/// untimed warm-up (net_hot fills the cache with the whole pool), phase
/// (A) open loop at the frozen rate with net_cold's reloads beside it,
/// phase (B) closed loop. The served stack ends the run as phase (B) left
/// it, cache included, for rss_mib.
void MeasureNet(const Args& args, bool hot, const pti::UncertainString& input,
                const std::string& path, int32_t port, Report* report) {
  const double rate = hot ? kHotRate : kColdRate;
  const double nominal = hot ? kHotNominalQps : kColdNominalQps;
  const size_t n_open = Count(rate, args.seconds * kOpenShare);
  const size_t n_closed = Count(nominal, args.seconds * (1.0 - kOpenShare));
  const NetInputs in = PrepareNet(input, path, args.seed, hot,
                                  n_open + n_closed);
  pti::net::NetClient admin;
  Connect(&admin, port);
  std::vector<double> reload_ms;
  for (int k = 0; k < kQuietReloads; ++k) {
    const auto start = Clock::now();
    const pti::Status st = admin.Reload(path, true);
    reload_ms.push_back(Ms(Clock::now() - start));
    report->tally.AddStatus(st);
  }
  report->tally.Merge(
      NetClosedLoop(port, in.stream, 0, in.warm, kWindow).tally);
  size_t at = in.warm;

  // (A) open loop at the frozen rate, cut into kWindows windows on one
  // continuous schedule, each window on a fresh connection (new server
  // reader and writer threads, so the windows draw kWindows thread
  // placements; one connection would hold one placement for the whole
  // run). Window k starts at t0 + k * (span + kWindowGap); net_cold
  // reloads in the middle of every fourth window.
  const size_t per_window = n_open / kWindows;
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(per_window) / rate));
  const auto t0 = Clock::now() + kWindowGap;
  const auto window_start = [&](size_t k) {
    return t0 + static_cast<Clock::rep>(k) * (span + kWindowGap);
  };
  std::vector<double> loaded_ms;
  std::thread reloader;
  if (!hot) {
    reloader = std::thread([&] {
      for (int k = 0; k < kColdReloads; ++k) {
        std::this_thread::sleep_until(window_start(4 * k) + span / 2);
        const auto start = Clock::now();
        const pti::Status st = admin.Reload(path, true);
        loaded_ms.push_back(Ms(Clock::now() - start));
        if (!st.ok()) {
          std::fprintf(stderr, "perfbench: reload: %s\n",
                       st.ToString().c_str());
        }
        report->tally.AddStatus(st);
      }
    });
  }
  Replay open;
  for (size_t k = 0; k < kWindows; ++k) {
    const Replay w = NetOpenLoop(port, in.stream, at, per_window, rate,
                                 window_start(k));
    const double offset_s =
        std::chrono::duration<double>(window_start(k) - t0).count();
    for (size_t i = 0; i < w.latency_us.size(); ++i) {
      open.latency_us.push_back(w.latency_us[i]);
      open.done_s.push_back(w.done_s[i] + offset_s);
    }
    open.late_us.insert(open.late_us.end(), w.late_us.begin(),
                        w.late_us.end());
    open.tally.Merge(w.tally);
    at += per_window;
  }
  if (reloader.joinable()) reloader.join();
  report->tally.Merge(open.tally);

  // (B) closed loop, fixed window, fixed request count, in kWindows
  // segments on fresh connections: each new connection gets new server
  // threads, so the phase averages over kWindows thread placements.
  // net_cold reloads the file before each segment (untimed), so each
  // segment also gets a fresh generation's shard fan-out pool, whose
  // placement otherwise holds for the whole phase. tput_qps is every
  // answered request over the segments' summed time.
  const size_t per_segment = n_closed / kWindows;
  size_t answered = 0;
  double busy_s = 0.0;
  for (size_t k = 0; k < kWindows; ++k) {
    if (!hot) report->tally.AddStatus(admin.Reload(path, true));
    const Replay closed =
        NetClosedLoop(port, in.stream, at, per_segment, kWindow);
    report->tally.Merge(closed.tally);
    answered += closed.latency_us.size();
    busy_s += closed.elapsed_s;
    at += per_segment;
  }
  AddEndToEnd(open, busy_s > 0.0 ? static_cast<double>(answered) / busy_s
                                 : 0.0,
              answered, report);
  report->notes.push_back("tput_qps: " + std::to_string(kWindows) +
                          " segments of " + std::to_string(per_segment) +
                          " requests, each on a fresh connection");
  report->Add("reload_ms",
              *std::min_element(reload_ms.begin(), reload_ms.end()), "ms",
              reload_ms.size());
  if (!hot) {
    report->Add("reload_loaded_ms", Median(loaded_ms), "ms",
                loaded_ms.size());
  }
  AddLateness(open.late_us, true, report);
}

/// The traced net run: the workload's kind of traffic replayed one layer
/// at a time (perfbench/README.md, "Per-layer metrics").
void TraceNet(const Args& args, bool hot, const pti::UncertainString& input,
              const std::string& path, const NetStack& stack,
              Report* report) {
  const double rate = hot ? kHotRate : kColdRate;
  const int32_t port = stack.server->port();
  // Three open-loop segments: net untraced, net traced, engine.
  const size_t n_seg = Count(rate, args.seconds * 0.15);
  const NetInputs in = PrepareNet(input, path, args.seed, hot, 3 * n_seg);
  report->tally.Merge(
      NetClosedLoop(port, in.stream, 0, in.warm, kWindow).tally);
  size_t at = in.warm;

  Trace trace;
  std::vector<size_t> span_len;
  // net: the same open loop untraced, then traced (overhead = p50 gap).
  const Replay plain = NetOpenLoop(port, in.stream, at, n_seg, rate,
                                   Clock::now() + std::chrono::milliseconds(5));
  at += n_seg;
  const Replay traced =
      NetOpenLoop(port, in.stream, at, n_seg, rate,
                  Clock::now() + std::chrono::milliseconds(5), &trace);
  at += n_seg;
  // engine: in-process at the same rate, on requests the net has not
  // seen (net_cold: all cache misses) or the same hot pool (net_hot: all
  // cache hits).
  const size_t engine_begin = at;
  const auto before = stack.engine->stats();
  const Replay engine =
      EngineLoop(stack.engine.get(), in.stream, at, n_seg, rate, &trace);
  const auto after = stack.engine->stats();
  NoteLengths(trace, in.stream, &span_len);
  // sharded -> core, one layer down, on the engine segment's requests.
  const size_t n_sync = std::min<size_t>(n_seg, 6000);
  const auto answers = ShardedReplay(in.reference, in.stream, engine_begin,
                                     n_sync, "core", &trace, &span_len,
                                     report);
  // engine.self_p50_us needs engine spans that did the sharded replay's
  // work. net_hot's engine segment was all cache hits, so the same
  // requests go again through an engine of the same file with its cache
  // off.
  if (hot) {
    pti::ServingEngine uncached(LoadSharded(path, 0), EngineOptions(false));
    report->tally.Merge(EngineLoop(&uncached, in.stream, engine_begin, n_sync,
                                   rate, &trace, "engine.uncached")
                            .tally);
    uncached.Stop();
  }
  // Long and fuzzy probes: the workload's own stream has neither.
  const int32_t k_depth = in.reference.shard(0).stats().short_depth_limit;
  RunProbes(in.reference, LongProbes(input, args.seed, k_depth, 256),
            "core.long_probe", &trace, &span_len, report);
  RunProbes(in.reference, FuzzyProbes(input, args.seed, 256), "fuzzy", &trace,
            &span_len, report);
  for (const Replay* r : {&plain, &traced, &engine}) {
    report->tally.Merge(r->tally);
  }
  AddLayerDiffs(trace, hot ? "engine.uncached" : "engine.submit", report);
  AddCodec(answers,
           std::vector<Digest>(in.stream.expected.begin() + engine_begin,
                               in.stream.expected.begin() + engine_begin +
                                   n_sync),
           report);
  report->Add("net.protocol_errors",
              static_cast<double>(stack.server->stats().protocol_errors),
              "count");
  AddEngineStats(before, after, report);
  AddCore(trace, span_len, k_depth, report);
  AddReload(port, path, [&] { return LoadSharded(path, 0); }, report);
  AddLateness(traced.late_us, true, report);
  AddOverhead(plain, traced, report);
}

Report RunNet(const Args& args, bool hot) {
  // Every thread started from here on (builds, engine, listener,
  // connections, reference queries) inherits the server CPUs.
  const CpuPin server_cpus(kServerCpu, kServerCpus);
  Report report;
  const pti::UncertainString input = MakeInput(args.seed);
  const IndexFile file(args, hot ? "net_hot" : "net_cold");

  NetStack stack;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.server.reset();  // the server holds a pointer to the engine
    stack.engine.reset();
    setups.push_back(SetupNet(input, file.path(), &stack));
  }
  AddSetup(setups, args.trace, &report);
  if (args.trace) {
    TraceNet(args, hot, input, file.path(), stack, &report);
  } else {
    MeasureNet(args, hot, input, file.path(), stack.server->port(), &report);
    // The harness's own allocations (stream, reference, samples) are
    // freed by now; what the served stack holds after serving remains.
    report.Add("rss_mib", ResidentMib() - setups.back().rss_base_mib, "MiB");
  }
  stack.server->Stop();
  return report;
}

}  // namespace

Report RunNetHot(const Args& args) { return RunNet(args, true); }
Report RunNetCold(const Args& args) { return RunNet(args, false); }

Report RunLibQuery(const Args& args) {
  const CpuPin server_cpus(kServerCpu, kServerCpus);
  Report report;
  const pti::UncertainString input = MakeInput(args.seed);
  const IndexFile file(args, "lib_query");

  pti::SubstringIndex index;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setups.push_back(SetupLib(input, file.path(), &index));
  }
  AddSetup(setups, args.trace, &report);

  Stream stream = LibStream(input, args.seed);
  const Answer answer = AnswerWith(index);
  ComputeDigests(answer, &stream, 1);  // the untimed reference pass

  if (!args.trace) {
    {
      const Replay loop = IndexLoop(answer, stream, args.seconds * kLibShare);
      report.tally.Merge(loop.tally);
      AddEndToEnd(loop,
                  SplitWindows(loop.latency_us, loop.done_s, kWindows).tput,
                  loop.latency_us.size(), &report);
      report.notes.push_back("tput_qps: best quarter of the same windows");
      AddLateness(loop.late_us, false, &report);
    }
    // An embedder's reload: map the file and Load it again.
    std::vector<double> reload_ms;
    for (int i = 0; i < kQuietReloads; ++i) {
      const auto start = Clock::now();
      (void)LoadSubstring(file.path()).stats();
      reload_ms.push_back(Ms(Clock::now() - start));
    }
    report.Add("reload_ms",
               *std::min_element(reload_ms.begin(), reload_ms.end()), "ms",
               reload_ms.size());
    // The loop's samples are freed; the index and the pages it touched
    // remain.
    report.Add("rss_mib", ResidentMib() - setups.back().rss_base_mib, "MiB");
    return report;
  }

  Trace trace;
  std::vector<size_t> span_len;
  const double loop_s = args.seconds * 0.15;
  const Replay plain = IndexLoop(answer, stream, loop_s);
  const Replay traced = IndexLoop(answer, stream, loop_s, &trace);
  report.tally.Merge(plain.tally);
  report.tally.Merge(traced.tally);
  NoteLengths(trace, stream, &span_len);
  const int32_t k_depth = index.stats().short_depth_limit;

  // The layers above the index, over a 1-shard tree-mode ShardedIndex of
  // the same input (the serving shape of a monolithic deployment).
  pti::ShardedIndexOptions options;
  options.index.transform.tau_min = kTauMin;
  options.num_shards = 1;
  options.overlap = kOverlap;
  options.num_threads = kBuildThreads;
  auto built = pti::ShardedIndex::Build(input, options);
  if (!built.ok()) Die("1-shard build", built.status());
  pti::ShardedIndex one = std::move(built).value();
  Stream served = stream;  // same requests, digests of the 1-shard index
  ComputeDigests(AnswerWith(one), &served, 3);
  const size_t half = served.requests.size() / 2;
  const auto answers = ShardedReplay(one, served, 0, served.requests.size(),
                                     "core.shard", &trace, &span_len, &report);
  // The engine's cache is off: the mix repeats requests, and every engine
  // span must do the sharded replay's work for engine.self_p50_us.
  pti::ServingEngine engine(std::move(one), EngineOptions(false));
  pti::net::NetServer server(&engine);
  const pti::Status started = server.Start();
  if (!started.ok()) Die("listen", started);
  // One request in flight, as the lib loop: net on the first half, the
  // engine in-process on the second.
  report.tally.Merge(NetClosedLoop(server.port(), served, 0, half, 1, &trace)
                         .tally);
  const auto before = engine.stats();
  report.tally.Merge(EngineLoop(&engine, served, half,
                                served.requests.size() - half, 0.0, &trace)
                         .tally);
  const auto after = engine.stats();
  NoteLengths(trace, served, &span_len);

  AddLayerDiffs(trace, "engine.submit", &report);
  AddCodec(answers, served.expected, &report);
  report.Add("net.protocol_errors",
             static_cast<double>(server.stats().protocol_errors), "count");
  AddEngineStats(before, after, &report);
  AddCore(trace, span_len, k_depth, &report);
  AddReload(server.port(), file.path(),
            [&] { return LoadSubstring(file.path()); }, &report);
  AddLateness(plain.late_us, false, &report);
  AddOverhead(plain, traced, &report);
  server.Stop();
  engine.Stop();
  return report;
}

}  // namespace perfbench
