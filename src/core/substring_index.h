// SubstringIndex: the paper's general substring-searching index (§5).
//
// Build pipeline: factor transformation (Lemma 2) -> sentinel-separated text
// -> suffix array (SA-IS) -> suffix tree -> global prefix log-probability
// array C -> per-depth RMQ structures with duplicate elimination (§5.2).
//
// Query (p, tau) with tau >= tau_min reports every position i of S with
// Pr(p, i) >= tau:
//   * m <= K (= ceil(log2 N) by default): Algorithm 4 — locus lookup, then
//     recursive RMQ extraction of maxima, O(1) validation each; O(m + occ).
//   * m > K: the paper's blocking scheme (§4.2 "long substrings"); see
//     BlockingMode for the supported variants.
//
// QueryFuzzy (core/fuzzy.h) takes the same threshold query over the pattern's
// variants within k errors; its k = 0 case is Query. QueryBatch is the one
// batched path for both: a BatchQuery is (pattern, tau, params), exact by
// default.
//
// Correlated characters (§3.3) are resolved exactly at validation time; the
// factor transformation enumerates with optimistic probabilities so no
// occurrence is missed (see factor_transform.h).

#ifndef PTI_CORE_SUBSTRING_INDEX_H_
#define PTI_CORE_SUBSTRING_INDEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/factor_transform.h"
#include "core/fuzzy.h"
#include "core/match.h"
#include "core/serde.h"
#include "core/uncertain_string.h"
#include "rmq/rmq_handle.h"
#include "util/status.h"

namespace pti {

/// Long-pattern (m > K) strategies.
enum class BlockingMode {
  /// Levels at depths K, 2K, 4K, ...: query uses the deepest level <= m as an
  /// upper-bound filter, validating candidates at exact depth m. Bounded
  /// memory, no per-query state. (Default.)
  kPow2 = 0,
  /// The paper's scheme: one block structure per queried length m, built
  /// lazily on first use and cached. Exact filtering (O(m * occ) enumeration)
  /// at the cost of O(N/m) extra words per distinct long length queried.
  kPaperExact = 1,
  /// No block structures: scan the locus range and validate every entry
  /// (the §4.1 "simple index" behaviour for long patterns).
  kScanOnly = 2,
};

struct IndexOptions {
  TransformOptions transform;
  /// Depth limit K for the per-depth RMQ forest; 0 means ceil(log2(N)).
  int32_t max_short_depth = 0;
  RmqEngineKind rmq_engine = RmqEngineKind::kBlock;
  BlockingMode blocking = BlockingMode::kPow2;
  /// Locus ranges no larger than this are scanned directly — cheaper than
  /// any structure for tiny ranges.
  size_t scan_cutoff = 64;
  /// Compact mode: after construction, replace the suffix tree (the
  /// dominant space cost) with an FM-index locator (wavelet tree over the
  /// BWT) — the space-efficient configuration the paper evaluates in §8.7
  /// via a compressed suffix array. Queries pay O(m log sigma) for the
  /// locus range instead of O(m log sigma) tree walking; reporting is
  /// unchanged. Typically 3-4x smaller overall.
  bool compact = false;
};

/// One (pattern, tau, params) query of a batch. Shared by
/// SubstringIndex::QueryBatch and the engine layer
/// (engine/sharded_index.h). The default params (k = 0) make it an exact
/// query, so `{pattern, tau}` means what Query(pattern, tau) means.
struct BatchQuery {
  std::string pattern;
  double tau = 0.0;
  /// Written out: FuzzyParams itself defaults to k = 1.
  FuzzyParams params = {0, FuzzyMetric::kMismatch};
};

/// Wall-clock milliseconds per construction stage, accumulated by
/// Build/Load when BuildOptions::timings is set (pti_cli --timings prints
/// them). Stages a path skips stay zero — e.g. a v3 zero-copy load builds
/// nothing. fm_ms can overlap derived_ms in wall time: the FM-index build
/// runs on its own thread alongside the derived passes when threads >= 2.
struct BuildTimings {
  double transform_ms = 0.0;  ///< factor transformation (Lemma 2)
  double sa_ms = 0.0;         ///< SA-IS (or suffix tree incl. SA, tree mode)
  double lcp_ms = 0.0;        ///< LCP array (compact mode; tree counts in sa)
  double fm_ms = 0.0;         ///< FM-index: BWT + wavelet tree (compact mode)
  double derived_ms = 0.0;    ///< prefix sums, remaining runs, active bitsets
  double rmq_ms = 0.0;        ///< the per-depth RMQ forest
};

/// Construction-resource options, distinct from IndexOptions (which shape
/// the structure): nothing here changes a single serialized byte. A T-thread
/// build produces bit-identical Save output to a 1-thread build (every
/// parallel pass writes precomputed disjoint locations, and the
/// floating-point prefix sums stay sequential). Namespace-scoped so it can
/// brace-default in SubstringIndex's own declarations; also reachable as
/// SubstringIndex::BuildOptions.
struct BuildOptions {
  /// Worker threads for the intra-index build: 1 (default) is fully serial,
  /// 0 means one per hardware thread, otherwise clamped to [1, 256].
  /// ShardedIndex splits its budget across shards with SplitThreadBudget so
  /// nested builds never oversubscribe.
  int32_t threads = 1;
  /// When set, per-stage wall-clock timings accumulate here.
  BuildTimings* timings = nullptr;
};

class SubstringIndex {
 public:
  SubstringIndex();
  ~SubstringIndex();
  SubstringIndex(SubstringIndex&&) noexcept;
  SubstringIndex& operator=(SubstringIndex&&) noexcept;

  using BuildOptions = pti::BuildOptions;

  /// Builds the index over `s`. Fails on invalid input or when the factor
  /// transformation exceeds its budget.
  static StatusOr<SubstringIndex> Build(const UncertainString& s,
                                        const IndexOptions& options = {},
                                        const BuildOptions& build = {});

  /// Reports all positions with occurrence probability >= tau, sorted by
  /// position. Fails if tau < tau_min or the pattern is empty.
  Status Query(const std::string& pattern, double tau,
               std::vector<Match>* out) const;

  /// Answers every query of the batch; out is resized to queries.size() and
  /// entry i holds exactly what QueryFuzzy(queries[i]) would report — which,
  /// for the default k = 0, is what Query(pattern, tau) reports. Queries are
  /// grouped by (k, metric, pattern), so equal queries share one extraction,
  /// run at the group's smallest tau and then filtered per query with the
  /// same threshold predicate. Exact groups run in pattern-sorted order so
  /// that the locus search resumes from the previous pattern instead of
  /// starting over: from the longest shared prefix in tree mode, from the
  /// longest shared suffix in compact mode. Fails — before any query runs —
  /// if any query is invalid (empty pattern, tau outside [tau_min, 1], or
  /// params rejected by CheckFuzzyParams).
  Status QueryBatch(const std::vector<BatchQuery>& queries,
                    std::vector<std::vector<Match>>* out) const;

  /// Approximate threshold query (core/fuzzy.h): all positions where some
  /// variant of the pattern within params.k errors occurs with probability
  /// >= tau, sorted by position; each position reports its best variant's
  /// probability. params.k == 0 is bit-identical to Query. Compact mode
  /// enumerates variant windows by branching backward search over the
  /// FM-index; tree mode seeds-and-extends (k+1 pigeonhole seeds, candidate
  /// verification against the source string). Fails like Query on invalid
  /// pattern/tau, plus InvalidArgument/NotSupported from CheckFuzzyParams.
  Status QueryFuzzy(const std::string& pattern, double tau,
                    const FuzzyParams& params, std::vector<Match>* out) const;

  /// The k highest-probability occurrences with probability >= tau, in
  /// non-increasing probability order (ties by position).
  Status QueryTopK(const std::string& pattern, double tau, size_t k,
                   std::vector<Match>* out) const;

  /// Number of occurrences with probability >= tau.
  Status Count(const std::string& pattern, double tau, size_t* count) const;

  struct Stats {
    int64_t original_length = 0;
    size_t num_factors = 0;
    size_t transformed_length = 0;  ///< N, including sentinels
    int32_t short_depth_limit = 0;  ///< K
    size_t num_tree_nodes = 0;
  };
  Stats stats() const;
  size_t MemoryUsage() const;

  const UncertainString& source() const;
  const IndexOptions& options() const;

  /// Serializes the index at the current container version
  /// (serde::kContainerVersion). A v3 container persists — 8-byte aligned —
  /// every derived structure the compact query paths touch (suffix array,
  /// prefix sums, active bitsets, FM-index, block-RMQ forest), so Load is
  /// validation plus pointer fix-up instead of a rebuild.
  Status Save(std::string* out) const;
  /// Same, at an explicit container version: serde::kInterchangeVersion (2)
  /// writes the checksummed interchange format whose Load rebuilds all
  /// derived structures deterministically.
  Status Save(std::string* out, uint32_t version) const;

  /// Deserializes a container. For a v3 container the index keeps zero-copy
  /// views into `data`: pass the Blob that owns those bytes (e.g. from
  /// serde::MapFile) as `backing` to pin it for the index's lifetime. With
  /// no backing, Load copies the bytes into a private Blob first, so views
  /// can never dangle regardless of what the caller does with `data`. A v2
  /// container is decoded fully and retains nothing. `build` governs the
  /// rebuild paths (v2 and tree-mode containers re-derive LCP, FM and RMQ
  /// structures; the v3 zero-copy path builds nothing, so it ignores
  /// threads and leaves the timings at zero).
  static StatusOr<SubstringIndex> Load(std::string_view data,
                                       serde::BlobPtr backing = nullptr,
                                       const BuildOptions& build = {});

 private:
  friend class SubstringIndexTestPeer;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Test-only introspection hooks (implemented in substring_index.cc).
class SubstringIndexTestPeer {
 public:
  /// True when Load consumed a persisted suffix-array ("SARR") section
  /// instead of re-deriving the suffix array with SA-IS.
  static bool SaLoadedFromSection(const SubstringIndex& index);
  /// True when Load consumed the v3 derived sections (DERV/ACTV/FMIX[/RMQB])
  /// instead of rebuilding prefix sums, active bitsets, the FM-index and the
  /// RMQ forest.
  static bool DerivedLoadedFromSections(const SubstringIndex& index);
  /// True when the index's large arrays (text, maps, suffix array) are views
  /// into a pinned backing Blob rather than private copies.
  static bool ZeroCopyBacked(const SubstringIndex& index);
};

}  // namespace pti

#endif  // PTI_CORE_SUBSTRING_INDEX_H_
