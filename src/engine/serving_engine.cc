#include "engine/serving_engine.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/substring_index.h"
#include "util/bounded_queue.h"
#include "util/lru_cache.h"
#include "util/thread_pool.h"

namespace pti {

namespace {

constexpr size_t kNumLanes = 2;  // Priority::kInteractive, Priority::kBatch

// Cache key: a fixed two-byte header (metric kind, k), the pattern bytes, a
// NUL separator, then the exact bit pattern of tau. Fixed-size header +
// fixed-size tail keeps keys unambiguous for arbitrary pattern bytes;
// bit-exact tau equality is the only comparison that keeps cached results
// bit-identical to the synchronous path. The exact path (k == 0) uses header
// (0, 0) — bit-identical to the k == 0 fuzzy query by contract — so every
// real fuzzy (metric, k) pair gets its own entries while exact traffic
// shares one. priority is deliberately not in the key: the lane changes
// when a request runs, never what it answers.
std::string CacheKey(const Request& request) {
  std::string key;
  key.reserve(request.pattern.size() + 11);
  if (request.k > 0) {
    key.push_back(
        static_cast<char>(request.metric == FuzzyMetric::kEdit ? 2 : 1));
    key.push_back(static_cast<char>(request.k & 0xff));
  } else {
    key.push_back('\0');
    key.push_back('\0');
  }
  key.append(request.pattern);
  key.push_back('\0');
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(request.tau), "double must be 64-bit");
  std::memcpy(&bits, &request.tau, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    key.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
  return key;
}

// Approximate bytes a cached entry pins: key + matches + list/map node
// bookkeeping in LruCache.
size_t EntryCharge(const std::string& key, const std::vector<Match>& matches) {
  return key.size() + matches.size() * sizeof(Match) + 96;
}

ServingOptions Resolve(ServingOptions options) {
  if (options.max_batch < 1) options.max_batch = 1;
  if (options.linger_us < 0) options.linger_us = 0;
  options.num_workers = ResolveThreadCount(options.num_workers);
  if (options.max_pending < 0) options.max_pending = 0;  // 0 = unbounded
  if (options.admission_stripes < 1) options.admission_stripes = 1;
  if (options.admission_stripes > 256) options.admission_stripes = 256;
  int32_t stripes = 1;
  while (stripes < options.admission_stripes) stripes <<= 1;
  options.admission_stripes = stripes;
  return options;
}

}  // namespace

struct ServingEngine::Impl {
  // One Submit call's promise, tagged with the lane it asked for so the
  // per-lane completion counters attribute merged waiters to their own
  // priority, not the priority of the execution they joined.
  struct Waiter {
    std::promise<Result> promise;
    uint8_t lane = 0;
  };

  // One unique (pattern, tau, metric, k) awaiting or undergoing execution;
  // every duplicate Submit attaches another waiter. waiters is guarded by
  // the owning admission stripe's mutex.
  struct Pending {
    Request request;
    std::string key;
    std::chrono::steady_clock::time_point enqueued;
    std::vector<Waiter> waiters;
  };

  // One lock stripe of the admission path: the in-flight dedup table for
  // the keys that hash here. Striping keeps N clients submitting distinct
  // keys from serializing on one engine-wide mutex; two Submits of the
  // same key still serialize (they must — the second one merges).
  struct Stripe {
    std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<Pending>> inflight;
  };

  Impl(ShardedIndex index, const ServingOptions& opts)
      : options(Resolve(opts)),
        cache(options.cache_bytes, options.cache_shards),
        interactive_lane(static_cast<size_t>(options.max_pending)),
        batch_lane(static_cast<size_t>(options.max_pending)),
        generation(std::make_shared<const ShardedIndex>(std::move(index))),
        pool(options.num_workers) {
    stripes.reserve(static_cast<size_t>(options.admission_stripes));
    for (int32_t i = 0; i < options.admission_stripes; ++i) {
      stripes.push_back(std::make_unique<Stripe>());
    }
    for (int32_t w = 0; w < options.num_workers; ++w) {
      pool.Submit([this] { WorkerLoop(); });
    }
  }

  Stripe& StripeFor(const std::string& key) {
    const size_t h = std::hash<std::string>{}(key);
    return *stripes[h & (stripes.size() - 1)];
  }

  BoundedQueue<std::shared_ptr<Pending>>& Lane(uint8_t lane) {
    return lane == 0 ? interactive_lane : batch_lane;
  }

  size_t TotalDepth() const {
    return interactive_lane.size() + batch_lane.size();
  }

  // Workers sleep on dispatch_cv with a predicate over the lanes' atomic
  // size gauges. A notifier must pass through dispatch_mu after its push is
  // visible, or a worker that just evaluated the predicate could sleep
  // through the wakeup; the empty critical section is that handshake.
  void WakeOne() {
    { std::lock_guard<std::mutex> lock(dispatch_mu); }
    dispatch_cv.notify_one();
  }
  void WakeAll() {
    { std::lock_guard<std::mutex> lock(dispatch_mu); }
    dispatch_cv.notify_all();
  }

  // Swaps in a validated replacement index. In-flight and already-popped
  // batches finish on the generation they pinned; the result cache is
  // cleared (entries may describe the old index); the old generation is
  // freed — unmapped, for an mmap-backed load — when its last batch drains.
  // Requests merged onto an in-flight execution intentionally share its
  // (old-generation) answer: they joined that execution.
  void Swap(std::shared_ptr<const ShardedIndex> next) {
    {
      std::lock_guard<std::mutex> lock(gen_mu);
      generation = std::move(next);
      ++generation_number;
    }
    cache.Clear();
    reloads.fetch_add(1, std::memory_order_relaxed);
  }

  // Takes up to `want` pending requests, interactive lane first. The strict
  // lane order is the priority policy: batch work runs only when no
  // interactive work is queued.
  void PopBatchInto(std::vector<std::shared_ptr<Pending>>* out, size_t want) {
    interactive_lane.PopUpTo(want, out);
    if (out->size() < want) {
      batch_lane.PopUpTo(want - out->size(), out);
    }
  }

  void WorkerLoop() {
    const auto linger = std::chrono::microseconds(options.linger_us);
    const size_t want = static_cast<size_t>(options.max_batch);
    std::vector<std::shared_ptr<Pending>> batch;
    for (;;) {
      batch.clear();
      // Read the drain flag before popping: Stop() publishes it only after
      // the admission barrier, so stopping == true here means every
      // accepted request is already visible in its lane — empty pops below
      // prove the engine is drained and this worker may exit.
      const bool stopping = draining.load(std::memory_order_acquire);
      if (!stopping && options.linger_us > 0) {
        const size_t depth = TotalDepth();
        if (depth > 0 && depth < want) {
          // Let the under-full batch linger (measured from the oldest
          // pending request) so bursts from concurrent clients coalesce.
          std::shared_ptr<Pending> front;
          std::shared_ptr<Pending> batch_front;
          const bool has_i = interactive_lane.PeekFront(&front);
          const bool has_b = batch_lane.PeekFront(&batch_front);
          if (has_b && (!has_i || batch_front->enqueued < front->enqueued)) {
            front = std::move(batch_front);
          }
          if (has_i || has_b) {
            const auto deadline = front->enqueued + linger;
            std::unique_lock<std::mutex> lock(dispatch_mu);
            dispatch_cv.wait_until(lock, deadline, [this, want] {
              return draining.load(std::memory_order_acquire) ||
                     TotalDepth() >= want;
            });
          }
        }
      }
      PopBatchInto(&batch, want);
      if (batch.empty()) {
        if (stopping) return;  // stop observed before the pops: drained
        std::unique_lock<std::mutex> lock(dispatch_mu);
        dispatch_cv.wait(lock, [this] {
          return draining.load(std::memory_order_acquire) || TotalDepth() > 0;
        });
        continue;
      }
      std::shared_ptr<const ShardedIndex> gen;
      {
        // Pin one generation for the whole batch: every request in it is
        // answered by one index, and a concurrent Reload cannot free that
        // index while this worker still holds the shared_ptr.
        std::lock_guard<std::mutex> lock(gen_mu);
        gen = generation;
      }
      RunBatch(*gen, batch);
    }
  }

  // One micro-batch, exact and fuzzy requests alike, is one QueryBatch
  // call: an exact request is the k = 0 case of a fuzzy one.
  void RunBatch(const ShardedIndex& gen,
                const std::vector<std::shared_ptr<Pending>>& batch) {
    std::vector<BatchQuery> queries;
    queries.reserve(batch.size());
    for (const auto& r : batch) {
      queries.push_back({r->request.pattern, r->request.tau,
                         FuzzyParams{r->request.k, r->request.metric}});
    }
    std::vector<std::vector<Match>> results;
    const Status st = gen.QueryBatch(queries, &results);
    batches.fetch_add(1, std::memory_order_relaxed);
    // Each request lands in exactly one execution counter: batched_queries
    // when the batched path answered it, fallback_queries when validation
    // failed and it re-ran individually — so batched + fallback is the
    // engine's total unique executions.
    if (st.ok()) {
      batched_queries.fetch_add(batch.size(), std::memory_order_relaxed);
      for (size_t i = 0; i < batch.size(); ++i) {
        Fulfill(*batch[i], Result{Status::OK(), std::move(results[i])});
      }
      return;
    }
    // The batched path validates all-or-nothing; re-run each request on its
    // own so one client's invalid query cannot fail its batch-mates.
    for (size_t i = 0; i < batch.size(); ++i) {
      Result result;
      result.status = gen.QueryFuzzy(queries[i].pattern, queries[i].tau,
                                     queries[i].params, &result.matches);
      fallback_queries.fetch_add(1, std::memory_order_relaxed);
      Fulfill(*batch[i], std::move(result));
    }
  }

  // The Submit path (defined after the class): validation, cache probe,
  // in-flight merge, bounded enqueue or shed.
  std::future<Result> SubmitImpl(Request request);

  void Fulfill(Pending& pending, Result result) {
    if (result.status.ok() && options.cache_bytes > 0) {
      cache.Put(pending.key, result.matches,
                EntryCharge(pending.key, result.matches));
    }
    std::vector<Waiter> waiters;
    {
      Stripe& stripe = StripeFor(pending.key);
      std::lock_guard<std::mutex> lock(stripe.mu);
      stripe.inflight.erase(pending.key);
      waiters = std::move(pending.waiters);
    }
    completed.fetch_add(waiters.size(), std::memory_order_relaxed);
    for (const auto& w : waiters) {
      lane_completed[w.lane].fetch_add(1, std::memory_order_relaxed);
    }
    for (size_t i = 0; i + 1 < waiters.size(); ++i) {
      waiters[i].promise.set_value(result);
    }
    if (!waiters.empty()) waiters.back().promise.set_value(std::move(result));
  }

  const ServingOptions options;

  LruCache<std::string, std::vector<Match>> cache;

  // Admission: lock-striped in-flight table + two bounded priority lanes.
  std::vector<std::unique_ptr<Stripe>> stripes;
  BoundedQueue<std::shared_ptr<Pending>> interactive_lane;
  BoundedQueue<std::shared_ptr<Pending>> batch_lane;

  // Worker wakeups only; never held while touching a stripe or a lane.
  std::mutex dispatch_mu;
  std::condition_variable dispatch_cv;

  // Current index; guarded by gen_mu (read when pinning a popped batch,
  // written by Reload). shared_ptr keeps drained-from generations alive
  // off-lock.
  std::mutex gen_mu;
  std::shared_ptr<const ShardedIndex> generation;
  uint64_t generation_number = 1;  // guarded by gen_mu

  // Two-phase stop (see Stop()): admission_closed turns every later Submit
  // into a reject; draining additionally tells workers they may exit once
  // the lanes are empty. Workers must never observe draining before every
  // pre-stop admission has finished its push — Stop()'s stripe barrier
  // enforces that.
  std::atomic<bool> admission_closed{false};
  std::atomic<bool> draining{false};

  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> inflight_merges{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> batched_queries{0};
  std::atomic<uint64_t> fallback_queries{0};
  std::atomic<uint64_t> reloads{0};
  std::atomic<uint64_t> lane_submitted[kNumLanes] = {{0}, {0}};
  std::atomic<uint64_t> lane_completed[kNumLanes] = {{0}, {0}};
  std::atomic<uint64_t> lane_shed[kNumLanes] = {{0}, {0}};

  // Declared last: destroyed first, which joins the workers while every
  // field they touch is still alive.
  ThreadPool pool;
};

ServingEngine::ServingEngine(ShardedIndex index, const ServingOptions& options)
    : impl_(new Impl(std::move(index), options)) {}

ServingEngine::~ServingEngine() {
  Stop();
  // impl_ destruction joins the worker pool, which drains the lanes first.
}

std::future<ServingEngine::Result> ServingEngine::Impl::SubmitImpl(
    Request request) {
  std::promise<Result> promise;
  std::future<Result> future = promise.get_future();
  const uint8_t lane =
      request.priority == Priority::kBatch ? uint8_t{1} : uint8_t{0};
  if (admission_closed.load(std::memory_order_acquire)) {
    submitted.fetch_add(1, std::memory_order_relaxed);
    rejected.fetch_add(1, std::memory_order_relaxed);
    promise.set_value(
        Result{Status::NotSupported("serving engine stopped"), {}});
    return future;
  }
  if (request.k != 0) {
    // Invalid fuzzy parameters never queue: queueing them would let a bogus
    // k collide with a valid request's cache/in-flight key after the header
    // truncation. They still count as submitted + completed (answered,
    // with an error), keeping the conservation law exact.
    const Status st = CheckFuzzyParams(FuzzyParams{request.k, request.metric});
    if (!st.ok()) {
      submitted.fetch_add(1, std::memory_order_relaxed);
      lane_submitted[lane].fetch_add(1, std::memory_order_relaxed);
      completed.fetch_add(1, std::memory_order_relaxed);
      lane_completed[lane].fetch_add(1, std::memory_order_relaxed);
      promise.set_value(Result{st, {}});
      return future;
    }
  }
  // metric is used only when k > 0: clearing it for an exact request keeps
  // a stray metric value from failing QueryBatch's params validation.
  if (request.k == 0) request.metric = FuzzyMetric::kMismatch;
  std::string key = CacheKey(request);
  if (options.cache_bytes > 0) {
    std::vector<Match> cached;
    if (cache.Get(key, &cached)) {
      submitted.fetch_add(1, std::memory_order_relaxed);
      lane_submitted[lane].fetch_add(1, std::memory_order_relaxed);
      cache_hits.fetch_add(1, std::memory_order_relaxed);
      completed.fetch_add(1, std::memory_order_relaxed);
      lane_completed[lane].fetch_add(1, std::memory_order_relaxed);
      promise.set_value(Result{Status::OK(), std::move(cached)});
      return future;
    }
  }
  bool was_shed = false;
  {
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    // Re-check under the stripe lock: Stop()'s barrier acquires every
    // stripe after setting the flag, so an admission that read `false`
    // here has finished its push before any worker can see `draining`.
    if (admission_closed.load(std::memory_order_acquire)) {
      submitted.fetch_add(1, std::memory_order_relaxed);
      rejected.fetch_add(1, std::memory_order_relaxed);
      promise.set_value(
          Result{Status::NotSupported("serving engine stopped"), {}});
      return future;
    }
    submitted.fetch_add(1, std::memory_order_relaxed);
    lane_submitted[lane].fetch_add(1, std::memory_order_relaxed);
    auto it = stripe.inflight.find(key);
    if (it != stripe.inflight.end()) {
      if (options.cache_bytes > 0) {
        cache_misses.fetch_add(1, std::memory_order_relaxed);
      }
      inflight_merges.fetch_add(1, std::memory_order_relaxed);
      it->second->waiters.push_back(Waiter{std::move(promise), lane});
      return future;
    }
    auto pending = std::make_shared<Pending>();
    pending->request = std::move(request);
    pending->key = std::move(key);
    pending->enqueued = std::chrono::steady_clock::now();
    pending->waiters.push_back(Waiter{std::move(promise), lane});
    // Push before publishing in the in-flight table: a request that sheds
    // was never visible, so nothing can merge onto it. Holding the stripe
    // lock across the push keeps admission of one key atomic (stripe ->
    // lane is the only nesting; no path acquires them the other way).
    if (Lane(lane).TryPush(pending)) {
      stripe.inflight.emplace(pending->key, std::move(pending));
    } else {
      was_shed = true;
      shed.fetch_add(1, std::memory_order_relaxed);
      lane_shed[lane].fetch_add(1, std::memory_order_relaxed);
      pending->waiters.front().promise.set_value(Result{
          Status::Unavailable(lane == 0 ? "interactive lane full: load shed"
                                        : "batch lane full: load shed"),
          {}});
    }
  }
  if (options.cache_bytes > 0 && !was_shed) {
    cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  if (!was_shed) WakeOne();
  return future;
}

std::future<ServingEngine::Result> ServingEngine::Submit(Request request) {
  return impl_->SubmitImpl(std::move(request));
}

std::vector<std::future<ServingEngine::Result>> ServingEngine::SubmitBatch(
    Span<const Request> requests) {
  std::vector<std::future<Result>> futures;
  futures.reserve(requests.size());
  for (const auto& r : requests) futures.push_back(Submit(r));
  return futures;
}

Status ServingEngine::Reload(ShardedIndex index) {
  impl_->Swap(std::make_shared<const ShardedIndex>(std::move(index)));
  return Status::OK();
}

Status ServingEngine::Reload(const std::string& path, bool use_mmap) {
  // Load and validate entirely beside the live generation: a failed load
  // leaves the engine serving the old index, untouched.
  PTI_ASSIGN_OR_RETURN(
      const serde::BlobPtr blob,
      use_mmap ? serde::MapFile(path) : serde::ReadFileToBlob(path));
  const std::string_view data = blob->view();
  PTI_ASSIGN_OR_RETURN(const serde::IndexKind kind, serde::PeekKind(data));
  ShardedIndex index;
  if (kind == serde::IndexKind::kSharded) {
    PTI_ASSIGN_OR_RETURN(index, ShardedIndex::Load(data, 0, blob));
  } else if (kind == serde::IndexKind::kSubstring) {
    PTI_ASSIGN_OR_RETURN(SubstringIndex mono, SubstringIndex::Load(data, blob));
    index = ShardedIndex::FromIndex(std::move(mono));
  } else {
    return Status::InvalidArgument(
        "serving engine reloads substring or sharded containers only");
  }
  return Reload(std::move(index));
}

void ServingEngine::Stop() {
  // Two-phase: (1) close admission — every Submit that has not yet passed
  // its stripe-lock check will reject; (2) pass through every stripe lock,
  // which waits out any admission that read the flag as still-open while
  // holding its stripe (their lane pushes complete before they release);
  // (3) only then tell the workers they may exit on empty lanes. Without
  // the barrier a worker could see empty lanes + stop while a straggler
  // admission is mid-push, and that request's future would be abandoned.
  impl_->admission_closed.store(true, std::memory_order_release);
  for (auto& stripe : impl_->stripes) {
    std::lock_guard<std::mutex> lock(stripe->mu);
  }
  impl_->draining.store(true, std::memory_order_release);
  impl_->WakeAll();
}

ServingEngine::Stats ServingEngine::stats() const {
  const Impl& impl = *impl_;
  Stats s;
  s.submitted = impl.submitted.load(std::memory_order_relaxed);
  s.completed = impl.completed.load(std::memory_order_relaxed);
  s.shed = impl.shed.load(std::memory_order_relaxed);
  s.rejected = impl.rejected.load(std::memory_order_relaxed);
  s.cache_hits = impl.cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = impl.cache_misses.load(std::memory_order_relaxed);
  s.inflight_merges = impl.inflight_merges.load(std::memory_order_relaxed);
  s.batches = impl.batches.load(std::memory_order_relaxed);
  s.batched_queries = impl.batched_queries.load(std::memory_order_relaxed);
  s.fallback_queries = impl.fallback_queries.load(std::memory_order_relaxed);
  s.queue_depth = impl.TotalDepth();
  s.interactive_submitted =
      impl.lane_submitted[0].load(std::memory_order_relaxed);
  s.interactive_completed =
      impl.lane_completed[0].load(std::memory_order_relaxed);
  s.interactive_shed = impl.lane_shed[0].load(std::memory_order_relaxed);
  s.batch_submitted = impl.lane_submitted[1].load(std::memory_order_relaxed);
  s.batch_completed = impl.lane_completed[1].load(std::memory_order_relaxed);
  s.batch_shed = impl.lane_shed[1].load(std::memory_order_relaxed);
  s.reloads = impl.reloads.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->gen_mu);
    s.generation = impl.generation_number;
  }
  const auto cache_stats = impl.cache.stats();
  s.cache_entries = cache_stats.entries;
  s.cache_bytes = cache_stats.bytes;
  s.cache_evictions = cache_stats.evictions;
  return s;
}

const ServingOptions& ServingEngine::options() const {
  return impl_->options;
}

}  // namespace pti
