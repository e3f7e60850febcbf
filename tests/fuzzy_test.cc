// Differential suite for the fuzzy (approximate) query subsystem:
// QueryFuzzy / QueryBatch pinned against the BruteForceFuzzy oracle
// across tree, compact and sharded modes via the randomized property sweep
// in test_util.h, plus named pinning tests for every degenerate input.
//
// Correlated sweep cells keep patterns short (m <= 3, so every variant
// window of length <= m + k stays within the short-depth limit K): the
// short-query extraction path is exact for correlated windows at any depth,
// which is the regime the fuzzy paths are specified over.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/fuzzy.h"
#include "core/substring_index.h"
#include "engine/sharded_index.h"
#include "test_util.h"

namespace pti {
namespace {

// Bit-identical match lists: positions and probabilities exactly equal.
bool IdenticalMatches(const std::vector<Match>& a,
                      const std::vector<Match>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].position == b[i].position &&
          a[i].probability == b[i].probability)) {
      return false;
    }
  }
  return true;
}

void ExpectFuzzySameAsOracle(const SubstringIndex& index,
                             const UncertainString& s,
                             const std::string& pattern, double tau,
                             const FuzzyParams& params,
                             const std::string& label) {
  std::vector<Match> got;
  ASSERT_TRUE(index.QueryFuzzy(pattern, tau, params, &got).ok())
      << label << " pattern '" << pattern << "'";
  const std::vector<Match> want = BruteForceFuzzy(s, pattern, tau, params);
  EXPECT_TRUE(test::SameMatches(got, want))
      << label << " pattern '" << pattern << "' tau " << tau << " k "
      << params.k << " metric " << static_cast<int>(params.metric)
      << "\n  got:  " << test::MatchesToString(got)
      << "\n  want: " << test::MatchesToString(want);
}

void ExpectShardedFuzzySameAsOracle(const ShardedIndex& index,
                                    const UncertainString& s,
                                    const std::string& pattern, double tau,
                                    const FuzzyParams& params,
                                    const std::string& label) {
  std::vector<Match> got;
  ASSERT_TRUE(index.QueryFuzzy(pattern, tau, params, &got).ok())
      << label << " pattern '" << pattern << "'";
  const std::vector<Match> want = BruteForceFuzzy(s, pattern, tau, params);
  EXPECT_TRUE(test::SameMatches(got, want))
      << label << " (sharded) pattern '" << pattern << "' tau " << tau
      << " k " << params.k << " metric " << static_cast<int>(params.metric)
      << "\n  got:  " << test::MatchesToString(got)
      << "\n  want: " << test::MatchesToString(want);
}

// Patterns for one sweep cell: a healthy mix of likely-occurring (sampled
// from the string) and random ones. Correlated cells stay short (see the
// file comment); uncorrelated ones stretch into the long-pattern regime.
std::vector<std::string> SweepPatterns(const test::SweepConfig& config,
                                       int count) {
  Rng rng(config.seed * 31 + 7);
  const size_t max_len = config.num_correlations > 0 ? 3 : 6;
  std::vector<std::string> patterns;
  for (int q = 0; q < count; ++q) {
    const size_t len = 1 + rng.Uniform(max_len);
    if (q % 3 == 0) {
      patterns.push_back(
          test::RandomPattern(config.alphabet, len, rng.Next()));
    } else {
      const int64_t start =
          static_cast<int64_t>(rng.Uniform(config.s.size() - len + 1));
      patterns.push_back(
          test::PatternFromString(config.s, start, len, rng.Next()));
    }
  }
  return patterns;
}

constexpr double kSweepTaus[] = {0.05, 0.2, 0.5};
constexpr FuzzyMetric kMetrics[] = {FuzzyMetric::kMismatch,
                                    FuzzyMetric::kEdit};

TEST(FuzzyDifferentialTest, TreeModeMatchesOracle) {
  test::PropertySweepSpec spec;
  test::RunPropertySweep(spec, [](const test::SweepConfig& config) {
    IndexOptions options;
    options.transform.tau_min = 0.05;
    const auto index = SubstringIndex::Build(config.s, options);
    ASSERT_TRUE(index.ok()) << config.label;
    for (const std::string& pattern : SweepPatterns(config, 6)) {
      for (const double tau : kSweepTaus) {
        for (const FuzzyMetric metric : kMetrics) {
          for (int32_t k = 0; k <= kMaxFuzzyErrors; ++k) {
            ExpectFuzzySameAsOracle(*index, config.s, pattern, tau,
                                    {k, metric}, config.label);
          }
        }
      }
    }
  });
}

TEST(FuzzyDifferentialTest, CompactModeMatchesOracle) {
  test::PropertySweepSpec spec;
  spec.base_seed = 2;
  test::RunPropertySweep(spec, [](const test::SweepConfig& config) {
    IndexOptions options;
    options.transform.tau_min = 0.05;
    options.compact = true;
    const auto index = SubstringIndex::Build(config.s, options);
    ASSERT_TRUE(index.ok()) << config.label;
    for (const std::string& pattern : SweepPatterns(config, 6)) {
      for (const double tau : kSweepTaus) {
        for (const FuzzyMetric metric : kMetrics) {
          for (int32_t k = 0; k <= kMaxFuzzyErrors; ++k) {
            ExpectFuzzySameAsOracle(*index, config.s, pattern, tau,
                                    {k, metric}, config.label);
          }
        }
      }
    }
  });
}

TEST(FuzzyDifferentialTest, ShardedMatchesOracleAcrossOverlaps) {
  test::PropertySweepSpec spec;
  spec.base_seed = 3;
  spec.alphabets = {2, 3};  // sharded builds are pricier; trim the grid
  test::RunPropertySweep(spec, [](const test::SweepConfig& config) {
    // Sweep the shard overlap: 8 comfortably covers every variant length
    // (max pattern 6 + k 2); 12 exercises wider slices, and the second
    // config flips to compact shards with a different shard count.
    const struct {
      int32_t num_shards;
      int32_t overlap;
      bool compact;
    } layouts[] = {{3, 8, false}, {4, 12, true}};
    for (const auto& layout : layouts) {
      ShardedIndexOptions options;
      options.index.transform.tau_min = 0.05;
      options.index.compact = layout.compact;
      options.num_shards = layout.num_shards;
      options.overlap = layout.overlap;
      options.num_threads = 2;
      const auto index = ShardedIndex::Build(config.s, options);
      ASSERT_TRUE(index.ok()) << config.label;
      for (const std::string& pattern : SweepPatterns(config, 4)) {
        for (const double tau : kSweepTaus) {
          for (const FuzzyMetric metric : kMetrics) {
            for (int32_t k = 0; k <= kMaxFuzzyErrors; ++k) {
              ExpectShardedFuzzySameAsOracle(*index, config.s, pattern, tau,
                                             {k, metric}, config.label);
            }
          }
        }
      }
    }
  });
}

TEST(FuzzyDifferentialTest, KZeroIsBitIdenticalToExactQuery) {
  test::PropertySweepSpec spec;
  spec.base_seed = 4;
  spec.strings_per_config = 1;
  test::RunPropertySweep(spec, [](const test::SweepConfig& config) {
    for (const bool compact : {false, true}) {
      IndexOptions options;
      options.transform.tau_min = 0.05;
      options.compact = compact;
      const auto index = SubstringIndex::Build(config.s, options);
      ASSERT_TRUE(index.ok()) << config.label;
      for (const std::string& pattern : SweepPatterns(config, 6)) {
        for (const double tau : kSweepTaus) {
          std::vector<Match> exact;
          ASSERT_TRUE(index->Query(pattern, tau, &exact).ok());
          for (const FuzzyMetric metric : kMetrics) {
            std::vector<Match> fuzzy;
            ASSERT_TRUE(
                index->QueryFuzzy(pattern, tau, {0, metric}, &fuzzy).ok());
            EXPECT_TRUE(IdenticalMatches(exact, fuzzy))
                << config.label << " compact=" << compact << " pattern '"
                << pattern << "' tau " << tau
                << "\n  exact: " << test::MatchesToString(exact)
                << "\n  fuzzy: " << test::MatchesToString(fuzzy);
          }
        }
      }
    }
  });
}

TEST(FuzzyDifferentialTest, BatchEqualsPerQueryLoop) {
  test::PropertySweepSpec spec;
  spec.base_seed = 5;
  spec.alphabets = {3};
  test::RunPropertySweep(spec, [](const test::SweepConfig& config) {
    for (const bool compact : {false, true}) {
      IndexOptions options;
      options.transform.tau_min = 0.05;
      options.compact = compact;
      const auto index = SubstringIndex::Build(config.s, options);
      ASSERT_TRUE(index.ok()) << config.label;
      // A batch mixing shared patterns at different taus/k (exercising the
      // group-collapse path), k = 0 members, and both metrics.
      std::vector<BatchQuery> batch;
      const auto patterns = SweepPatterns(config, 3);
      for (const std::string& pattern : patterns) {
        for (const double tau : kSweepTaus) {
          batch.push_back({pattern, tau, {1, FuzzyMetric::kMismatch}});
          batch.push_back({pattern, tau, {2, FuzzyMetric::kEdit}});
          batch.push_back({pattern, tau, {0, FuzzyMetric::kMismatch}});
        }
      }
      std::vector<std::vector<Match>> got;
      ASSERT_TRUE(index->QueryBatch(batch, &got).ok()) << config.label;
      ASSERT_EQ(got.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        std::vector<Match> want;
        ASSERT_TRUE(index
                        ->QueryFuzzy(batch[i].pattern, batch[i].tau,
                                     batch[i].params, &want)
                        .ok());
        EXPECT_TRUE(IdenticalMatches(got[i], want))
            << config.label << " compact=" << compact << " batch entry " << i
            << " pattern '" << batch[i].pattern << "'"
            << "\n  batch: " << test::MatchesToString(got[i])
            << "\n  loop:  " << test::MatchesToString(want);
      }
    }
  });
}

TEST(FuzzyDifferentialTest, ShardedBatchEqualsPerQueryLoop) {
  test::RandomStringSpec rs{.length = 50, .alphabet = 3, .seed = 71};
  const UncertainString s = test::RandomUncertain(rs);
  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.05;
  options.num_shards = 3;
  options.overlap = 8;
  options.num_threads = 2;
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  std::vector<BatchQuery> batch;
  Rng rng(73);
  for (int q = 0; q < 12; ++q) {
    const size_t len = 1 + rng.Uniform(5);
    const std::string pattern = test::RandomPattern(3, len, rng.Next());
    batch.push_back({pattern, 0.05 + 0.15 * (q % 3),
                     {static_cast<int32_t>(q % 3),
                      (q % 2) ? FuzzyMetric::kEdit : FuzzyMetric::kMismatch}});
  }
  std::vector<std::vector<Match>> got;
  ASSERT_TRUE(index->QueryBatch(batch, &got).ok());
  ASSERT_EQ(got.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    std::vector<Match> want;
    ASSERT_TRUE(
        index->QueryFuzzy(batch[i].pattern, batch[i].tau, batch[i].params,
                          &want)
            .ok());
    EXPECT_TRUE(IdenticalMatches(got[i], want)) << "batch entry " << i;
  }
}

// ---- Degenerate-input pinning tests -------------------------------------

class FuzzyDegenerateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    test::RandomStringSpec rs{.length = 12, .alphabet = 3, .seed = 91};
    s_ = test::RandomUncertain(rs);
    IndexOptions options;
    options.transform.tau_min = 0.05;
    auto tree = SubstringIndex::Build(s_, options);
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();
    options.compact = true;
    auto compact = SubstringIndex::Build(s_, options);
    ASSERT_TRUE(compact.ok());
    compact_ = std::move(compact).value();
  }

  UncertainString s_;
  SubstringIndex tree_;
  SubstringIndex compact_;
};

TEST_F(FuzzyDegenerateTest, KAtLeastPatternLength) {
  // k >= m: every position is a candidate (under kEdit any single present
  // character is an admissible variant). Both modes must still equal the
  // oracle exactly.
  for (const SubstringIndex* index : {&tree_, &compact_}) {
    for (const FuzzyMetric metric : kMetrics) {
      ExpectFuzzySameAsOracle(*index, s_, "ab", 0.1, {2, metric},
                              "k >= pattern length");
      ExpectFuzzySameAsOracle(*index, s_, "a", 0.1, {2, metric},
                              "k > pattern length");
      ExpectFuzzySameAsOracle(*index, s_, "a", 0.1, {1, metric},
                              "k == pattern length");
    }
  }
}

TEST_F(FuzzyDegenerateTest, EmptyPatternFails) {
  std::vector<Match> out;
  for (const SubstringIndex* index : {&tree_, &compact_}) {
    const Status st = index->QueryFuzzy("", 0.5, {1, FuzzyMetric::kEdit},
                                        &out);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  }
  // The oracle agrees: an empty pattern matches nowhere.
  EXPECT_TRUE(BruteForceFuzzy(s_, "", 0.5, {1, FuzzyMetric::kEdit}).empty());
}

TEST_F(FuzzyDegenerateTest, PatternLongerThanText) {
  // 13 > n = 12. Under kMismatch no window fits; under kEdit with k
  // deletions a pattern up to n + k still has admissible variants.
  const std::string just_over = test::RandomPattern(3, 13, 97);
  for (const SubstringIndex* index : {&tree_, &compact_}) {
    ExpectFuzzySameAsOracle(*index, s_, just_over, 0.05,
                            {2, FuzzyMetric::kMismatch},
                            "pattern longer than text, mismatch");
    ExpectFuzzySameAsOracle(*index, s_, just_over, 0.05,
                            {2, FuzzyMetric::kEdit},
                            "pattern longer than text, edit");
    std::vector<Match> out;
    ASSERT_TRUE(index
                    ->QueryFuzzy(just_over, 0.05, {2, FuzzyMetric::kMismatch},
                                 &out)
                    .ok());
    EXPECT_TRUE(out.empty());
  }
  // Deterministic pin of the edit-with-deletions case: a pattern one longer
  // than the text matches when dropping one character yields the text.
  UncertainString tiny = UncertainString::FromDeterministic("abc");
  IndexOptions options;
  options.transform.tau_min = 0.05;
  for (const bool compact : {false, true}) {
    options.compact = compact;
    const auto index = SubstringIndex::Build(tiny, options);
    ASSERT_TRUE(index.ok());
    std::vector<Match> out;
    ASSERT_TRUE(
        index->QueryFuzzy("abcd", 0.5, {1, FuzzyMetric::kEdit}, &out).ok());
    ASSERT_EQ(out.size(), 1u) << "compact=" << compact;
    EXPECT_EQ(out[0].position, 0);
    EXPECT_EQ(out[0].probability, 1.0);
  }
}

TEST_F(FuzzyDegenerateTest, TauBoundaries) {
  std::vector<Match> out;
  for (const SubstringIndex* index : {&tree_, &compact_}) {
    // tau = 0 and tau > 1 are invalid, exactly as for the exact query.
    EXPECT_TRUE(index->QueryFuzzy("ab", 0.0, {1, FuzzyMetric::kMismatch}, &out)
                    .IsInvalidArgument());
    EXPECT_TRUE(index->QueryFuzzy("ab", 1.5, {1, FuzzyMetric::kMismatch}, &out)
                    .IsInvalidArgument());
    // tau = 1 is the tight upper boundary: valid, and only certain variants
    // qualify — pin against the oracle.
    ExpectFuzzySameAsOracle(*index, s_, "ab", 1.0, {1, FuzzyMetric::kEdit},
                            "tau == 1");
    // tau below the construction-time tau_min is rejected.
    EXPECT_TRUE(index->QueryFuzzy("ab", 0.01, {1, FuzzyMetric::kMismatch}, &out)
                    .IsInvalidArgument());
    // tau exactly at tau_min is the lower boundary and must work.
    ExpectFuzzySameAsOracle(*index, s_, "ab", 0.05, {1, FuzzyMetric::kMismatch},
                            "tau == tau_min");
  }
}

TEST_F(FuzzyDegenerateTest, KZeroEqualsExactQueryBitwise) {
  for (const SubstringIndex* index : {&tree_, &compact_}) {
    std::vector<Match> exact, fuzzy;
    ASSERT_TRUE(index->Query("ab", 0.1, &exact).ok());
    ASSERT_TRUE(
        index->QueryFuzzy("ab", 0.1, {0, FuzzyMetric::kMismatch}, &fuzzy).ok());
    EXPECT_TRUE(IdenticalMatches(exact, fuzzy));
    ASSERT_TRUE(
        index->QueryFuzzy("ab", 0.1, {0, FuzzyMetric::kEdit}, &fuzzy).ok());
    EXPECT_TRUE(IdenticalMatches(exact, fuzzy));
  }
}

TEST_F(FuzzyDegenerateTest, InvalidParamsRejected) {
  std::vector<Match> out;
  EXPECT_TRUE(tree_.QueryFuzzy("ab", 0.1, {-1, FuzzyMetric::kMismatch}, &out)
                  .IsInvalidArgument());
  const Status st =
      tree_.QueryFuzzy("ab", 0.1, {kMaxFuzzyErrors + 1, FuzzyMetric::kEdit},
                       &out);
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
  // Batch validation fails before any query runs, with the entry index.
  std::vector<BatchQuery> batch = {
      {"ab", 0.1, {1, FuzzyMetric::kMismatch}},
      {"ab", 0.1, {7, FuzzyMetric::kMismatch}}};
  std::vector<std::vector<Match>> outs;
  const Status bst = tree_.QueryBatch(batch, &outs);
  EXPECT_TRUE(bst.IsNotSupported());
  EXPECT_NE(bst.message().find("batch query #1"), std::string::npos)
      << bst.message();
}

TEST(FuzzyShardedLimitsTest, OverlapWidensByK) {
  test::RandomStringSpec rs{.length = 40, .alphabet = 3, .seed = 101};
  const UncertainString s = test::RandomUncertain(rs);
  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.05;
  options.num_shards = 3;
  options.overlap = 6;  // supports exact patterns up to 7
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  const std::string p7 = test::RandomPattern(3, 7, 103);
  std::vector<Match> out;
  // Exact and mismatch queries accept the full overlap+1 length...
  EXPECT_TRUE(index->Query(p7, 0.1, &out).ok());
  EXPECT_TRUE(
      index->QueryFuzzy(p7, 0.1, {2, FuzzyMetric::kMismatch}, &out).ok());
  // ...but kEdit variants can grow by k, so the limit tightens.
  const Status st = index->QueryFuzzy(p7, 0.1, {2, FuzzyMetric::kEdit}, &out);
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
  EXPECT_NE(st.message().find("widened by k=2"), std::string::npos)
      << st.message();
  // Length 5 + k 2 == overlap + 1 == 7 is the tight admissible boundary.
  const std::string p5 = test::RandomPattern(3, 5, 107);
  EXPECT_TRUE(index->QueryFuzzy(p5, 0.1, {2, FuzzyMetric::kEdit}, &out).ok());
}

TEST(FuzzyOracleTest, MatchesPossibleWorldSemantics) {
  // First-principles pin on a tiny string: FuzzyOccurrenceProb must equal
  // the max over admissible variants of the exact occurrence probability.
  UncertainString s;
  s.AddPosition({{'a', 0.75}, {'b', 0.25}});
  s.AddPosition({{'b', 0.5}, {'c', 0.5}});
  s.AddPosition({{'a', 1.0}});
  // Pattern "aa", k = 1 mismatch at position 0: variants present at 0 are
  // "ab" (0.75 * 0.5), "ac" (0.75 * 0.5), "ba" (absent 'a' at 1 — no), and
  // "aa" itself has no 'a' at position 1. Best: 0.375.
  const LogProb p =
      FuzzyOccurrenceProb(s, "aa", 0, {1, FuzzyMetric::kMismatch});
  EXPECT_NEAR(p.ToLinear(), 0.375, 1e-12);
  // k = 1 edit at position 1: deleting one 'a' leaves "a", matched by
  // position 2's certain 'a'... but a length-1 variant at position 1 must
  // match position 1: best is 'b' or 'c' (0.5) via substitution+deletion?
  // Two edits — not admissible. Inserting before: "ba"/"ca" = 0.5 * 1.0.
  const LogProb q = FuzzyOccurrenceProb(s, "aa", 1, {1, FuzzyMetric::kEdit});
  EXPECT_NEAR(q.ToLinear(), 0.5, 1e-12);
}

}  // namespace
}  // namespace pti
