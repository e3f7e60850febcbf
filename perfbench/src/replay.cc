// Replay loops: one request stream pushed through the TCP front end or
// the in-process engine, open loop at a frozen rate or closed loop with a
// fixed window.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "bench.h"
#include "net/client.h"

namespace perfbench {

namespace {

int64_t Ticks(Clock::time_point t) { return t.time_since_epoch().count(); }
Clock::time_point FromTicks(int64_t ticks) {
  return Clock::time_point(Clock::duration(ticks));
}

// Receives `count` responses in FIFO order, checking each against its
// reference digest; `on_answer(i, now, ok)` runs after each one, with ok
// false for an answer that failed the check.
template <typename OnAnswer>
void ReceiveAll(pti::net::NetClient* client, const Stream& stream,
                size_t begin, size_t count, Tally* tally,
                OnAnswer on_answer) {
  pti::net::Frame frame;
  for (size_t i = 0; i < count; ++i) {
    const pti::Status st = client->Receive(&frame);
    const auto now = Clock::now();
    if (!st.ok()) {
      // The connection broke: everything still outstanding failed, and
      // none of it is timed.
      std::fprintf(stderr, "perfbench: receive: %s\n", st.ToString().c_str());
      tally->attempted += count - i;
      tally->errors += count - i;
      return;
    }
    const bool ok =
        tally->Add(frame.code, frame.matches, stream.expected[begin + i]);
    on_answer(i, now, ok);
  }
}

}  // namespace

Replay NetOpenLoop(int32_t port, const Stream& stream, size_t begin,
                   size_t count, double rate, Clock::time_point t0,
                   Trace* trace) {
  const uint32_t layer = trace != nullptr ? trace->Layer("net.rtt") : 0;
  pti::net::NetClient client;
  Connect(&client, port);
  const Schedule schedule(t0, rate);
  Replay out;
  out.late_us.assign(count, 0.0);
  // Send instants cross to the receiver through relaxed atomics: the
  // socket orders them in practice, the atomics make it defined.
  std::unique_ptr<std::atomic<int64_t>[]> sent(new std::atomic<int64_t>[count]);
  Clock::time_point last{};
  const CpuPin send_cpu(kSendCpu, 1);
  std::thread receiver([&] {
    const CpuPin receive_cpu(kReceiveCpu, 1);
    ReceiveAll(&client, stream, begin, count, &out.tally,
               [&](size_t i, Clock::time_point now, bool ok) {
                 last = now;
                 if (!ok) return;
                 out.latency_us.push_back(DueLatencyUs(schedule.Due(i), now));
                 out.done_s.push_back(ToUs(now - t0) * 1e-6);
                 if (trace != nullptr) {
                   trace->Record(
                       layer, begin + i,
                       FromTicks(sent[i].load(std::memory_order_relaxed)),
                       now);
                 }
               });
  });
  TightenTimerSlack();
  for (size_t i = 0; i < count; ++i) {
    const auto due = schedule.Due(i);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const auto now = Clock::now();
    out.late_us[i] = ToUs(now - due);
    sent[i].store(Ticks(now), std::memory_order_relaxed);
    uint64_t id = 0;
    if (!client.SendQuery(stream.requests[begin + i], &id).ok()) {
      // A broken connection: the receiver's Receive fails too and counts
      // the rest as failed.
      break;
    }
  }
  receiver.join();
  out.elapsed_s = std::chrono::duration<double>(last - t0).count();
  return out;
}

Replay NetClosedLoop(int32_t port, const Stream& stream, size_t begin,
                     size_t count, size_t window, Trace* trace) {
  const uint32_t layer = trace != nullptr ? trace->Layer("net.rtt") : 0;
  pti::net::NetClient client;
  Connect(&client, port);
  Replay out;
  std::unique_ptr<std::atomic<int64_t>[]> sent(new std::atomic<int64_t>[count]);
  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0;  // guarded by mu
  const auto t0 = Clock::now();
  Clock::time_point last = t0;
  const CpuPin send_cpu(kSendCpu, 1);
  std::thread receiver([&] {
    const CpuPin receive_cpu(kReceiveCpu, 1);
    ReceiveAll(&client, stream, begin, count, &out.tally,
               [&](size_t i, Clock::time_point now, bool ok) {
                 last = now;
                 if (ok) {
                   const auto sent_at =
                       FromTicks(sent[i].load(std::memory_order_relaxed));
                   out.latency_us.push_back(ToUs(now - sent_at));
                   out.done_s.push_back(ToUs(now - t0) * 1e-6);
                   if (trace != nullptr) {
                     trace->Record(layer, begin + i, sent_at, now);
                   }
                 }
                 {
                   std::lock_guard<std::mutex> lock(mu);
                   --in_flight;
                 }
                 cv.notify_one();
               });
    // Unblock a sender waiting on a window that will never open.
    std::lock_guard<std::mutex> lock(mu);
    in_flight = 0;
    cv.notify_one();
  });
  for (size_t i = 0; i < count; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < window; });
      ++in_flight;
    }
    sent[i].store(Ticks(Clock::now()), std::memory_order_relaxed);
    uint64_t id = 0;
    if (!client.SendQuery(stream.requests[begin + i], &id).ok()) break;
  }
  receiver.join();
  out.elapsed_s = std::chrono::duration<double>(last - t0).count();
  return out;
}

Replay EngineLoop(pti::ServingEngine* engine, const Stream& stream,
                  size_t begin, size_t count, double rate, Trace* trace,
                  const char* layer_name) {
  const uint32_t layer = trace != nullptr ? trace->Layer(layer_name) : 0;
  Replay out;
  const CpuPin send_cpu(kSendCpu, 1);
  if (rate <= 0.0) {
    const auto t0 = Clock::now();
    Clock::time_point prev_end = t0;
    for (size_t i = 0; i < count; ++i) {
      const auto start = Clock::now();
      pti::ServingEngine::Result result =
          engine->Submit(stream.requests[begin + i]).get();
      prev_end = Clock::now();
      if (!out.tally.Add(result.status.code(), result.matches,
                         stream.expected[begin + i])) {
        continue;
      }
      out.latency_us.push_back(ToUs(prev_end - start));
      if (trace != nullptr) trace->Record(layer, begin + i, start, prev_end);
    }
    out.elapsed_s = std::chrono::duration<double>(prev_end - t0).count();
    return out;
  }
  // Open loop: the sender submits at each due instant; a collector
  // resolves the futures in submission order.
  struct Pending {
    std::future<pti::ServingEngine::Result> future;
    Clock::time_point submitted;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;  // guarded by mu
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  Clock::time_point last = t0;
  const Schedule schedule(t0, rate);
  std::thread collector([&] {
    const CpuPin receive_cpu(kReceiveCpu, 1);
    for (size_t i = 0; i < count; ++i) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty(); });
        p = std::move(queue.front());
        queue.pop_front();
      }
      pti::ServingEngine::Result result = p.future.get();
      const auto now = Clock::now();
      last = now;
      if (!out.tally.Add(result.status.code(), result.matches,
                         stream.expected[begin + i])) {
        continue;
      }
      out.latency_us.push_back(ToUs(now - p.submitted));
      if (trace != nullptr) trace->Record(layer, begin + i, p.submitted, now);
    }
  });
  TightenTimerSlack();
  for (size_t i = 0; i < count; ++i) {
    const auto due = schedule.Due(i);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    Pending p;
    p.submitted = Clock::now();
    p.future = engine->Submit(stream.requests[begin + i]);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  }
  collector.join();
  out.elapsed_s = std::chrono::duration<double>(last - t0).count();
  return out;
}

Replay IndexLoop(const Answer& answer, const Stream& stream, double seconds,
                 Trace* trace) {
  const uint32_t exact = trace != nullptr ? trace->Layer("core") : 0;
  const uint32_t fuzzy = trace != nullptr ? trace->Layer("fuzzy") : 0;
  const CpuPin cpu(kLibCpu, 1);
  Replay out;
  const size_t n = stream.requests.size();
  std::vector<pti::Match> matches;
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  auto prev_end = t0;
  for (size_t i = 0; prev_end < stop; ++i) {
    const pti::Request& request = stream.requests[i % n];
    const auto start = Clock::now();
    const pti::Status st = answer(request, &matches);
    const auto end = Clock::now();
    out.late_us.push_back(ToUs(start - prev_end));
    prev_end = end;
    if (!out.tally.Add(st.code(), matches, stream.expected[i % n])) continue;
    out.latency_us.push_back(ToUs(end - start));
    out.done_s.push_back(ToUs(end - t0) * 1e-6);
    if (trace != nullptr) {
      trace->Record(request.k == 0 ? exact : fuzzy, i % n, start, end, -1,
                    static_cast<double>(matches.size()));
    }
  }
  out.elapsed_s = std::chrono::duration<double>(prev_end - t0).count();
  return out;
}

}  // namespace perfbench
