// Measurement helpers of the repository benchmark: percentile selection
// with the "ten samples beyond" rule, open-loop pacing timed from each
// request's due instant, the t = a + b * occ least-squares fit, answer
// digests, and the in-memory span trace. Pure functions of their inputs,
// so tests/harness_test.cc pins each one on synthetic data.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/match.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ToUs(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// ---- Percentiles ----------------------------------------------------------

/// A percentile read off a sample, with what it rests on.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;  ///< sample count
  size_t beyond = 0;   ///< samples ranked above the selected one
};

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a percentile.
inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile: the value of rank ceil(q * n) (1-based) of the
/// sorted sample. q in (0, 1]; an empty sample gives an all-zero Quantile.
/// Sorts `values` in place.
Quantile Percentile(std::vector<double>* values, double q);

/// True when the sample supports the percentile (kMinBeyond rule).
inline bool Supported(const Quantile& quantile) {
  return quantile.beyond >= kMinBeyond;
}

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The value a quarter of the windows match or beat: nearest-rank 25th
/// percentile of `values` when lower is better, 75th when higher is.
double BestQuarter(std::vector<double> values, bool higher_is_better);

/// A run's requests cut into equal consecutive windows, each summarized on
/// its own. The reported figure is the best-quarter window (BestQuarter):
/// interference from outside the program -- other tenants of the machine --
/// only ever slows a window, and on a shared box it slows a varying share
/// of them, which moves a median but rarely the best quarter. A change
/// that slows every window still moves it.
struct Windowed {
  double p50 = 0.0;   ///< best-quarter window p50 latency
  double p99 = 0.0;   ///< best-quarter window p99 latency
  double tput = 0.0;  ///< best-quarter window completions per second
  size_t windows = 0;
  size_t per_window = 0;  ///< samples in the smallest window
  size_t min_beyond = 0;  ///< fewest samples beyond a window's p99
};

/// `latency_us[i]` and `done_s[i]` (completion, seconds from the run's
/// start) of request i, in send order. A window's throughput is its
/// request count over the time from the previous window's last completion
/// (or 0) to its own last completion.
Windowed SplitWindows(const std::vector<double>& latency_us,
                      const std::vector<double>& done_s, size_t windows);

// ---- Open-loop pacing ------------------------------------------------------

/// Fixed-rate arrival schedule: request i is due at start + i / rate. The
/// sender sleeps until the next due instant and, when it wakes late, sends
/// every request already due at once (catch-up), so a stall delays later
/// requests instead of silently thinning the offered load. Latency is timed
/// from the due instant, never from the actual send, so the wait a stall
/// imposes on the requests queued behind it is counted.
class Schedule {
 public:
  Schedule(Clock::time_point start, double rate_per_s);

  Clock::time_point Due(size_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        interval_ * static_cast<double>(i));
  }

 private:
  Clock::time_point start_;
  std::chrono::duration<double, std::nano> interval_;
};

/// Latency of a request completing at `done` that was due at `due`.
inline double DueLatencyUs(Clock::time_point due, Clock::time_point done) {
  return ToUs(done - due);
}

/// Lets the calling thread's sleeps wake within about a microsecond
/// instead of the default 50 us timer slack. A paced sender otherwise
/// lands every request up to 50 us late.
void TightenTimerSlack();

/// Restricts the calling thread to CPUs [first, first + count) while in
/// scope and restores its previous mask on destruction; threads it starts
/// meanwhile inherit the restriction. A no-op on machines with fewer than
/// first + count CPUs. Pinning the client and server sides to their own
/// cores keeps run-to-run thread placement, and with it the latency
/// figures, from varying with the scheduler's choices.
class CpuPin {
 public:
  CpuPin(int first, int count);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// ---- Least-squares fit -----------------------------------------------------

/// y = intercept + slope * x over n points.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  size_t n = 0;
};

/// Ordinary least squares. With fewer than two distinct x values the slope
/// is 0 and the intercept is the mean of y.
LinearFit FitLine(const std::vector<double>& x, const std::vector<double>& y);

// ---- Answer digests --------------------------------------------------------

/// Match count plus a 64-bit hash of every (position, probability bits)
/// pair in order: two answers with equal digests are, barring a hash
/// collision, bit-identical.
struct Digest {
  uint64_t count = 0;
  uint64_t hash = 0;

  friend bool operator==(const Digest& a, const Digest& b) {
    return a.count == b.count && a.hash == b.hash;
  }
  friend bool operator!=(const Digest& a, const Digest& b) {
    return !(a == b);
  }
};

Digest DigestOf(const std::vector<pti::Match>& matches);

// ---- Span trace ------------------------------------------------------------

/// One timed call into a layer's public entry point.
struct SpanRecord {
  uint32_t layer = 0;    ///< id from Trace::Layer
  int32_t parent = -1;   ///< span that caused this one, or -1 for a root
  uint64_t request = 0;  ///< request index in the workload stream
  Clock::time_point start;
  Clock::time_point end;
  double work = 0.0;  ///< layer-defined work count (e.g. matches reported)
};

/// Spans kept in memory for the whole traced run; per-layer figures are
/// computed from them when the run ends.
class Trace {
 public:
  /// Registers a layer name, returning its id (idempotent per name).
  uint32_t Layer(const std::string& name);

  /// Appends a span, returning its index (for children's `parent`).
  int32_t Record(uint32_t layer, uint64_t request, Clock::time_point start,
                 Clock::time_point end, int32_t parent = -1,
                 double work = 0.0);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations in microseconds of every span of `layer`.
  std::vector<double> DurationsUs(uint32_t layer) const;

  /// Self time of each span of `layer`: its duration minus the part its
  /// child spans cover (children are assumed not to overlap each other).
  std::vector<double> SelfUs(uint32_t layer) const;

 private:
  std::vector<std::string> layers_;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
