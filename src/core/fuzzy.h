// Fuzzy (approximate) probabilistic threshold matching: k-mismatch and
// small-edit-distance queries over uncertain strings.
//
// Semantics: position i matches (pattern, tau, k) iff some deterministic
// variant p' within distance <= k of the pattern occurs at i with
// probability >= tau; the reported probability is the maximum over such
// variants (correlation rules resolved exactly as in §3.3). k = 0 degenerates
// to the exact threshold query. Distances:
//
//   * kMismatch — Hamming: substitutions only, |p'| == |p|;
//   * kEdit — Levenshtein: substitutions + insertions + deletions, so
//     |p'| ranges over [max(1, |p| - k), |p| + k] (the empty variant is
//     excluded: an empty pattern never matches anywhere, fuzzily or not).
//
// The index-side implementations (core/substring_index.cc) enumerate variant
// windows directly — branching backward search over the FM-index in compact
// mode, seed-and-extend over the suffix tree — and re-filter every window
// with the same LogProb::MeetsThreshold predicate the exact paths use, so
// the factor transformation's coverage/soundness guarantees carry over
// unchanged: any variant occurrence with probability >= tau_min is a factor
// window, and every factor window's value is that window's exact occurrence
// probability. This header holds the shared pieces: parameter validation,
// the variant-enumeration probability (the verification primitive), the
// BruteForceFuzzy oracle the differential tests pin everything against, and
// the FM-index range enumerator.

#ifndef PTI_CORE_FUZZY_H_
#define PTI_CORE_FUZZY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/match.h"
#include "core/uncertain_string.h"
#include "util/log_prob.h"
#include "util/status.h"

namespace pti {

class FmIndex;

/// Distance under which variants of the pattern are admitted.
enum class FuzzyMetric : uint8_t {
  kMismatch = 0,  ///< Hamming distance (substitutions only).
  kEdit = 1,      ///< Levenshtein distance (substitutions + indels).
};

/// Hard cap on k: the branching search multiplies its fan-out by the
/// alphabet per error, so errors beyond 2 belong to a different algorithm
/// family (filtering indexes), not this one.
inline constexpr int32_t kMaxFuzzyErrors = 2;

struct FuzzyParams {
  int32_t k = 1;
  FuzzyMetric metric = FuzzyMetric::kMismatch;
};

/// Validates k and the metric: k < 0 or an unknown metric value is
/// InvalidArgument; k > kMaxFuzzyErrors is NotSupported.
Status CheckFuzzyParams(const FuzzyParams& params);

/// Max over all variants p' (dist(pattern, p') <= k, p' non-empty) of
/// Pr(p' occurs at i) — the verification primitive shared by the oracle and
/// the tree-mode seed-and-extend path. Correlation rules resolve against
/// each variant's own window (§3.3). Returns LogProb::Zero() for an empty
/// pattern or an out-of-range i.
LogProb FuzzyOccurrenceProb(const UncertainString& s,
                            const std::string& pattern, int64_t i,
                            const FuzzyParams& params);

/// Ground-truth oracle: every position i with FuzzyOccurrenceProb >= tau,
/// sorted by position, probabilities in linear space. The same shape as
/// BruteForceSearch, which it reproduces bit-for-bit at k = 0.
std::vector<Match> BruteForceFuzzy(const UncertainString& s,
                                   const std::string& pattern, double tau,
                                   const FuzzyParams& params);

/// A complete approximate locus: the suffix-array range of one variant
/// (coordinates of the SA the FmIndex was built over) plus the variant's
/// length — the window depth the caller must extract at.
struct FuzzySaRange {
  int32_t begin = 0;
  int32_t end = 0;  ///< exclusive
  int32_t length = 0;

  friend bool operator==(const FuzzySaRange& a, const FuzzySaRange& b) {
    return a.begin == b.begin && a.end == b.end && a.length == b.length;
  }
};

/// Branching backward search (compact mode): enumerates the suffix-array
/// range of every distinct variant within distance <= params.k that occurs
/// in the indexed text, via FmIndex::ExtendLeft with substitution branches
/// over the occupied byte symbols (plus insert/delete steps under kEdit).
/// `pattern` is Text::MapPattern output. Results are deduplicated and
/// sorted by (begin, end, length).
std::vector<FuzzySaRange> EnumerateFmFuzzyRanges(
    const FmIndex& fm, const std::vector<int32_t>& pattern,
    const FuzzyParams& params);

/// Splits [0, m) into k+1 contiguous non-empty pieces (requires m > k):
/// under <= k errors, at least one piece is untouched by any error
/// (pigeonhole), so it occurs exactly in every admissible variant — the
/// seed set for tree-mode seed-and-extend. Returned as (offset, length)
/// pairs covering [0, m) in order.
std::vector<std::pair<int32_t, int32_t>> FuzzySeeds(int32_t m, int32_t k);

}  // namespace pti

#endif  // PTI_CORE_FUZZY_H_
