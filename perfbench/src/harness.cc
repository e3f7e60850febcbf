#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <pthread.h>
#include <sys/prctl.h>

#include <thread>

namespace perfbench {

Quantile Percentile(std::vector<double>* values, double q) {
  Quantile out;
  out.samples = values->size();
  if (values->empty()) return out;
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::min(std::max<size_t>(rank, 1), values->size());
  out.value = (*values)[rank - 1];
  out.beyond = values->size() - rank;
  return out;
}

double Median(std::vector<double> values) {
  return Percentile(&values, 0.5).value;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double BestQuarter(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t k = static_cast<size_t>(
      std::ceil(0.25 * static_cast<double>(values.size())));
  return higher_is_better ? values[values.size() - k] : values[k - 1];
}

Windowed SplitWindows(const std::vector<double>& latency_us,
                      const std::vector<double>& done_s, size_t windows) {
  Windowed out;
  const size_t n = std::min(latency_us.size(), done_s.size());
  out.windows = std::min(windows, n);
  if (out.windows == 0) return out;
  std::vector<double> p50s, p99s, tputs;
  out.per_window = n;
  out.min_beyond = n;
  double prev_done = 0.0;
  for (size_t w = 0; w < out.windows; ++w) {
    const size_t lo = n * w / out.windows;
    const size_t hi = n * (w + 1) / out.windows;
    std::vector<double> slice(latency_us.begin() + lo,
                              latency_us.begin() + hi);
    p50s.push_back(Percentile(&slice, 0.5).value);
    const Quantile p99 = Percentile(&slice, 0.99);
    p99s.push_back(p99.value);
    out.per_window = std::min(out.per_window, hi - lo);
    out.min_beyond = std::min(out.min_beyond, p99.beyond);
    // Completions are not monotone in send order under an open loop; the
    // window ends at its latest one.
    double last = prev_done;
    for (size_t i = lo; i < hi; ++i) last = std::max(last, done_s[i]);
    if (last > prev_done) {
      tputs.push_back(static_cast<double>(hi - lo) / (last - prev_done));
    }
    prev_done = last;
  }
  out.p50 = BestQuarter(p50s, false);
  out.p99 = BestQuarter(p99s, false);
  out.tput = BestQuarter(tputs, true);
  return out;
}

Schedule::Schedule(Clock::time_point start, double rate_per_s)
    : start_(start), interval_(1e9 / rate_per_s) {}

void TightenTimerSlack() {
  // Best effort: a refused prctl leaves the default slack, which only
  // shows up as a larger gen.late_p99_us.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

CpuPin::CpuPin(int first, int count) {
  if (first + count > static_cast<int>(std::thread::hardware_concurrency()) ||
      pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int cpu = first; cpu < first + count; ++cpu) CPU_SET(cpu, &mask);
  pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) == 0;
}

CpuPin::~CpuPin() {
  // Best effort: failing to widen the mask again only narrows later work.
  if (pinned_) (void)pthread_setaffinity_np(pthread_self(), sizeof(saved_),
                                            &saved_);
}

LinearFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  LinearFit fit;
  fit.n = std::min(x.size(), y.size());
  if (fit.n == 0) return fit;
  const double n = static_cast<double>(fit.n);
  double mx = 0.0;
  double my = 0.0;
  for (size_t i = 0; i < fit.n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < fit.n; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  fit.slope = sxx > 0.0 ? sxy / sxx : 0.0;
  fit.intercept = my - fit.slope * mx;
  return fit;
}

namespace {

// FNV-1a over the little-endian bytes of one 64-bit word.
uint64_t Mix(uint64_t hash, uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (word >> (8 * b)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

Digest DigestOf(const std::vector<pti::Match>& matches) {
  Digest d;
  d.count = matches.size();
  d.hash = 0xcbf29ce484222325ULL;
  for (const pti::Match& m : matches) {
    uint64_t bits = 0;
    std::memcpy(&bits, &m.probability, sizeof(bits));
    d.hash = Mix(d.hash, static_cast<uint64_t>(m.position));
    d.hash = Mix(d.hash, bits);
  }
  return d;
}

uint32_t Trace::Layer(const std::string& name) {
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i] == name) return static_cast<uint32_t>(i);
  }
  layers_.push_back(name);
  return static_cast<uint32_t>(layers_.size() - 1);
}

int32_t Trace::Record(uint32_t layer, uint64_t request,
                      Clock::time_point start, Clock::time_point end,
                      int32_t parent, double work) {
  SpanRecord span;
  span.layer = layer;
  span.parent = parent;
  span.request = request;
  span.start = start;
  span.end = end;
  span.work = work;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<double> Trace::DurationsUs(uint32_t layer) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.layer == layer) out.push_back(ToUs(s.end - s.start));
  }
  return out;
}

std::vector<double> Trace::SelfUs(uint32_t layer) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += ToUs(s.end - s.start);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer == layer) {
      out.push_back(ToUs(spans_[i].end - spans_[i].start) - child_us[i]);
    }
  }
  return out;
}

}  // namespace perfbench
