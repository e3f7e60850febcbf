// ShardedIndex: the serving-layer wrapper that splits one UncertainString
// across K SubstringIndex shards — the first step of the multi-million-user
// scaling story (ROADMAP: sharding, batching, parallel construction).
//
// Layout: shard k owns the original positions [begin_k, begin_{k+1}) but is
// built over the *slice* [begin_k, begin_{k+1} + overlap), so any window of
// up to overlap+1 characters starting at an owned position lies entirely
// inside the shard's slice:
//
//   original  |-------------------- S --------------------------|
//   shard 0   [ owned 0       | overlap )
//   shard 1                   [ owned 1       | overlap )
//   shard 2                                   [ owned 2         )
//
// Queries fan out to every shard; each shard reports matches in slice-local
// coordinates, which are mapped back by +begin_k, and matches starting
// inside the overlap tail are dropped (the next shard owns and reports
// them). Patterns longer than overlap+1 could straddle further than the
// slices cover, so they are rejected with NotSupported — rebuild with a
// larger overlap to serve them. Query and QueryFuzzy share one fan-out and
// one validation (an exact query is the k = 0 fuzzy query), and QueryBatch
// is the one batched path for both.
//
// One shard (K = 1) has no slice boundary: every query goes straight to
// shard 0, so the overlap length rule does not apply and a K = 1 index
// answers exactly as the SubstringIndex it wraps — same validation, same
// statuses, same match vectors. FromIndex wraps an already-built index that
// way; it is how a monolithic index is served.
//
// Correlation rules (§3.3) survive slicing exactly: a rule whose dependency
// position falls inside the slice is kept (re-based); one whose dependency
// lies outside can only ever resolve via the paper's case 2 (the dependency
// is outside every window the shard can match), so it is rewritten as a
// constant rule with pr+ = pr- = the case-2 marginal — byte-for-byte the
// value the monolithic index computes for those windows.
//
// Construction and Load build the shards concurrently on a
// util/thread_pool.h pool; query batches fan out shard-parallel the same
// way. Persistence nests each shard's own container inside a "SHRD"
// container (docs/FORMAT.md).

#ifndef PTI_ENGINE_SHARDED_INDEX_H_
#define PTI_ENGINE_SHARDED_INDEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/match.h"
#include "core/substring_index.h"
#include "core/uncertain_string.h"
#include "util/status.h"

namespace pti {

struct ShardedIndexOptions {
  /// Per-shard build configuration (factor transform, RMQ engine, blocking,
  /// compact mode — everything a monolithic build accepts).
  IndexOptions index;
  /// Number of shards; 0 means kDefaultNumShards. Clamped so every shard
  /// owns at least two positions.
  int32_t num_shards = 0;
  /// Slice overlap in characters; with more than one shard, supports
  /// patterns up to overlap+1 long (one shard has no length limit).
  /// 0 means min(kDefaultOverlap, n-1).
  int32_t overlap = 0;
  /// Worker threads for construction, Load and batch fan-out; 0 means one
  /// per hardware thread. The budget is split between the shard fan-out and
  /// each shard's intra-index build (SplitThreadBudget), so K shards times
  /// T intra-shard workers never oversubscribes the machine.
  int32_t num_threads = 0;
  /// When set, Build accumulates every shard's per-stage construction
  /// timings here (summed across shards — CPU time, not wall time, once
  /// shards build concurrently). Not serialized; ignored by Load.
  BuildTimings* build_timings = nullptr;

  static constexpr int32_t kDefaultNumShards = 4;
  static constexpr int32_t kDefaultOverlap = 255;
};

class ShardedIndex {
 public:
  ShardedIndex();
  ~ShardedIndex();
  ShardedIndex(ShardedIndex&&) noexcept;
  ShardedIndex& operator=(ShardedIndex&&) noexcept;

  /// Builds every shard (in parallel when options.num_threads allows).
  /// Fails on invalid input, exactly as SubstringIndex::Build would.
  static StatusOr<ShardedIndex> Build(const UncertainString& s,
                                      const ShardedIndexOptions& options = {});

  /// Wraps an already-built index as a one-shard ShardedIndex, without a
  /// rebuild or a copy. The overlap is resolved as Build resolves a 0
  /// request (one shard never applies it).
  static ShardedIndex FromIndex(SubstringIndex index);

  /// Reports all positions with occurrence probability >= tau, sorted by
  /// position — the same contract as SubstringIndex::Query. With more than
  /// one shard, fails with NotSupported when the pattern is longer than
  /// overlap+1.
  Status Query(const std::string& pattern, double tau,
               std::vector<Match>* out) const;

  /// Fuzzy threshold query (core/fuzzy.h), fanned out like Query. With
  /// more than one shard the overlap length rule widens by k: under kEdit a
  /// variant window can be params.k longer than the pattern, so patterns
  /// longer than overlap+1-k are NotSupported (kMismatch variants keep the
  /// pattern's length and get the exact limit). params.k == 0 is
  /// bit-identical to Query.
  Status QueryFuzzy(const std::string& pattern, double tau,
                    const FuzzyParams& params, std::vector<Match>* out) const;

  /// The one batched path, exact and fuzzy alike: validates every query up
  /// front, fans the whole batch out shard-parallel (each shard runs its
  /// own SubstringIndex::QueryBatch, with its grouping and prefix/suffix
  /// sharing), then merges per query. out[i] holds exactly what
  /// QueryFuzzy(queries[i]) would report — Query's answer for the default
  /// k = 0.
  Status QueryBatch(const std::vector<BatchQuery>& queries,
                    std::vector<std::vector<Match>>* out) const;

  /// Number of occurrences with probability >= tau.
  Status Count(const std::string& pattern, double tau, size_t* count) const;

  struct Stats {
    int64_t original_length = 0;
    int32_t num_shards = 0;
    int32_t overlap = 0;            ///< slice overlap; with more than one
                                    ///< shard, max pattern = overlap+1
    size_t num_factors = 0;         ///< summed over shards
    size_t transformed_length = 0;  ///< summed over shards
  };
  Stats stats() const;
  size_t MemoryUsage() const;

  /// Options with num_shards / overlap / num_threads resolved to the values
  /// actually in effect.
  const ShardedIndexOptions& options() const;

  int32_t num_shards() const;
  /// First original position owned by shard k.
  int64_t shard_begin(int32_t k) const;
  /// The underlying per-shard index (tests and benches).
  const SubstringIndex& shard(int32_t k) const;

  /// Persists the shard layout plus every shard's own container into one
  /// "SHRD" container (docs/FORMAT.md).
  Status Save(std::string* out) const;
  /// Same, at an explicit container version; nested shard containers are
  /// written at the same version (and stay 8-byte aligned in a v3 file, so
  /// their own loads remain zero-copy).
  Status Save(std::string* out, uint32_t version) const;
  /// Rebuilds every shard from its nested container, concurrently when
  /// num_threads allows. Cross-validates the manifest against the shards.
  /// For a v3 container the shards keep zero-copy views into `data`; pass
  /// the owning Blob (e.g. from serde::MapFile) as `backing` to pin it,
  /// else Load copies the bytes into a private Blob first.
  static StatusOr<ShardedIndex> Load(std::string_view data,
                                     int32_t num_threads = 1,
                                     serde::BlobPtr backing = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pti

#endif  // PTI_ENGINE_SHARDED_INDEX_H_
