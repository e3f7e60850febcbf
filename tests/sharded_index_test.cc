// engine/sharded_index.h: shard-boundary correctness (patterns straddling
// every shard edge at every offset of the overlap window), threshold
// semantics at/below tau_min, randomized agreement against both the
// monolithic SubstringIndex and the brute-force oracle, correlation rules
// crossing shard boundaries, parallel-vs-serial build determinism,
// Save/Load round-trips of the "SHRD" container, and the one-shard rule
// (K = 1 answers exactly as the monolithic index, with no length limit).

#include "engine/sharded_index.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/fuzzy.h"
#include "core/substring_index.h"
#include "test_util.h"

namespace pti {
namespace {

void ExpectAgreesWithOracle(const ShardedIndex& index,
                            const UncertainString& s,
                            const std::string& pattern, double tau) {
  std::vector<Match> got;
  ASSERT_TRUE(index.Query(pattern, tau, &got).ok()) << pattern;
  const std::vector<Match> want = BruteForceSearch(s, pattern, tau);
  EXPECT_TRUE(test::SameMatches(got, want))
      << "pattern '" << pattern << "' tau " << tau << "\n  got:  "
      << test::MatchesToString(got) << "\n  want: "
      << test::MatchesToString(want);
}

TEST(ShardedIndexTest, WorkedExampleAcrossShards) {
  // The paper's Appendix B string, split into two shards of two positions:
  // ("QP", 0.2) matches at 0 (0.49) and 1 (0.3). Position 1 is owned by
  // shard 0 but its window reaches into shard 1's territory, so it can only
  // be validated through shard 0's one-character overlap.
  UncertainString s;
  s.AddPosition({{'Q', 0.7}, {'S', 0.3}});
  s.AddPosition({{'Q', 0.3}, {'P', 0.7}});
  s.AddPosition({{'P', 1.0}});
  s.AddPosition({{'A', 0.4}, {'F', 0.3}, {'P', 0.2}, {'Q', 0.1}});
  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.1;
  options.num_shards = 2;
  options.overlap = 1;
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_shards(), 2);
  std::vector<Match> out;
  ASSERT_TRUE(index->Query("QP", 0.2, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].position, 0);
  EXPECT_NEAR(out[0].probability, 0.49, 1e-12);
  EXPECT_EQ(out[1].position, 1);
  EXPECT_NEAR(out[1].probability, 0.3, 1e-12);
}

TEST(ShardedIndexTest, StraddlingPatternsAtEveryOverlapOffset) {
  test::RandomStringSpec spec;
  spec.length = 64;
  spec.alphabet = 3;
  spec.theta = 0.4;
  spec.seed = 5;
  const UncertainString s = test::RandomUncertain(spec);

  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.05;
  options.num_shards = 4;  // begins at 0, 16, 32, 48
  options.overlap = 7;     // patterns up to 8 characters
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_EQ(index->num_shards(), 4);

  // Every pattern length up to overlap+1, starting at every position that
  // makes the window straddle (or touch) a shard edge — all offsets of the
  // overlap window on both sides of every boundary.
  for (int32_t k = 1; k < index->num_shards(); ++k) {
    const int64_t edge = index->shard_begin(k);
    for (int64_t len = 1; len <= options.overlap + 1; ++len) {
      for (int64_t start = edge - len; start <= edge + len; ++start) {
        if (start < 0 || start + len > s.size()) continue;
        const std::string pattern = test::PatternFromString(
            s, start, static_cast<size_t>(len),
            static_cast<uint64_t>(edge * 1000 + start * 10 + len));
        ExpectAgreesWithOracle(*index, s, pattern, 0.05);
        ExpectAgreesWithOracle(*index, s, pattern, 0.25);
      }
    }
  }
}

TEST(ShardedIndexTest, TauAtAndBelowTauMin) {
  test::RandomStringSpec spec;
  spec.length = 40;
  spec.seed = 9;
  const UncertainString s = test::RandomUncertain(spec);
  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.125;  // exactly representable
  options.num_shards = 3;
  options.overlap = 4;
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  const std::string pattern = test::PatternFromString(s, 14, 3, 2);
  std::vector<Match> out;
  // tau == tau_min is served.
  ASSERT_TRUE(index->Query(pattern, 0.125, &out).ok());
  ExpectAgreesWithOracle(*index, s, pattern, 0.125);
  // tau below tau_min is rejected, exactly like the monolithic index.
  EXPECT_TRUE(index->Query(pattern, 0.1, &out).IsInvalidArgument());
  EXPECT_TRUE(index->Query(pattern, 0.0, &out).IsInvalidArgument());
  EXPECT_TRUE(index->Query(pattern, 1.5, &out).IsInvalidArgument());
  EXPECT_TRUE(index->Query("", 0.5, &out).IsInvalidArgument());
}

TEST(ShardedIndexTest, PatternLengthLimits) {
  const UncertainString s = UncertainString::FromDeterministic(
      "abcabcabcabcabcabcabcabc");  // 24 positions
  ShardedIndexOptions options;
  options.num_shards = 3;
  options.overlap = 5;
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  std::vector<Match> out;
  // Up to overlap+1 = 6 characters: served.
  ASSERT_TRUE(index->Query("abcabc", 0.5, &out).ok());
  EXPECT_FALSE(out.empty());
  // Longer than the overlap supports but not longer than the string:
  // NotSupported with a rebuild hint.
  const Status st = index->Query("abcabca", 0.5, &out);
  EXPECT_TRUE(st.IsNotSupported());
  EXPECT_NE(st.message().find("overlap"), std::string::npos);
  // Longer than the whole string: trivially empty, like the monolithic
  // index — not an error.
  ASSERT_TRUE(
      index->Query(std::string(25, 'a'), 0.5, &out).ok());
  EXPECT_TRUE(out.empty());
}

// One shard has no slice boundary, so the overlap length rule does not
// apply: a K = 1 build with a small overlap answers a pattern longer than
// overlap+1, and an edit query whose widest variant is longer than the
// whole string, exactly as the monolithic index and the oracles do.
TEST(ShardedIndexTest, OneShardHasNoPatternLengthLimit) {
  const UncertainString s = UncertainString::FromDeterministic(
      "abcabcabcabcabcabcabcabc");  // 24 positions
  ShardedIndexOptions options;
  options.num_shards = 1;
  options.overlap = 5;
  const auto sharded = ShardedIndex::Build(s, options);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->num_shards(), 1);
  EXPECT_EQ(sharded->options().overlap, 5);
  const auto mono = SubstringIndex::Build(s, options.index);
  ASSERT_TRUE(mono.ok());

  std::vector<Match> got, want;
  const Status exact = sharded->Query("abcabca", 0.5, &got);
  ASSERT_TRUE(exact.ok()) << exact.ToString();
  ASSERT_TRUE(mono->Query("abcabca", 0.5, &want).ok());
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(got, want);
  EXPECT_TRUE(test::SameMatches(got, BruteForceSearch(s, "abcabca", 0.5)));

  // m + k = 23 + 2 > n = 24: the widest variants reach past the string.
  const std::string long_pattern = "abcabcabcabcabcabcabcab";
  const FuzzyParams edit{2, FuzzyMetric::kEdit};
  const Status fuzzy = sharded->QueryFuzzy(long_pattern, 0.5, edit, &got);
  ASSERT_TRUE(fuzzy.ok()) << fuzzy.ToString();
  ASSERT_TRUE(mono->QueryFuzzy(long_pattern, 0.5, edit, &want).ok());
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(got, want);
  EXPECT_TRUE(test::SameMatches(
      got, BruteForceFuzzy(s, long_pattern, 0.5, edit)));

  // The batched paths take the same route.
  std::vector<std::vector<Match>> batch;
  ASSERT_TRUE(sharded->QueryBatch({{"abcabca", 0.5}}, &batch).ok());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], BruteForceSearch(s, "abcabca", 0.5));
  ASSERT_TRUE(
      sharded->QueryBatch({{long_pattern, 0.5, edit}}, &batch).ok());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], want);
}

// FromIndex wraps a built index as one shard without rebuilding it: the
// wrapper answers, and fails, exactly as the index it wraps, and survives a
// v3 Save/Load round trip unchanged.
TEST(ShardedIndexTest, FromIndexAnswersAsTheWrappedIndexAndRoundTrips) {
  test::RandomStringSpec spec;
  spec.length = 90;
  spec.seed = 31;
  const UncertainString s = test::RandomUncertain(spec);
  for (const bool compact : {false, true}) {
    IndexOptions index_options;
    index_options.transform.tau_min = 0.05;
    index_options.compact = compact;
    auto reference = SubstringIndex::Build(s, index_options);
    auto built = SubstringIndex::Build(s, index_options);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(built.ok());
    const ShardedIndex wrapped =
        ShardedIndex::FromIndex(std::move(built).value());
    EXPECT_EQ(wrapped.num_shards(), 1);
    EXPECT_EQ(wrapped.shard_begin(0), 0);
    EXPECT_EQ(wrapped.stats().original_length, 90);
    EXPECT_EQ(wrapped.options().overlap, 89);  // Build's resolution of 0
    EXPECT_EQ(wrapped.options().index.transform.tau_min, 0.05);

    std::string blob;
    ASSERT_TRUE(wrapped.Save(&blob, 3).ok());
    const auto loaded = ShardedIndex::Load(blob, 2);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_shards(), 1);
    EXPECT_EQ(loaded->options().overlap, 89);
    std::string blob2;
    ASSERT_TRUE(loaded->Save(&blob2, 3).ok());
    EXPECT_EQ(blob2, blob);

    Rng rng(compact ? 37 : 41);
    std::vector<BatchQuery> queries;
    for (int q = 0; q < 40; ++q) {
      const size_t len = 1 + rng.Uniform(12);
      const int64_t start =
          static_cast<int64_t>(rng.Uniform(s.size() - len + 1));
      queries.push_back({test::PatternFromString(s, start, len, rng.Next()),
                         0.05 + 0.1 * static_cast<double>(rng.Uniform(3))});
    }
    // Invalid queries fail with the wrapped index's own status.
    queries.push_back({"", 0.5});
    queries.push_back({"ab", 0.01});
    for (const ShardedIndex* index : {&wrapped, &*loaded}) {
      for (const BatchQuery& q : queries) {
        std::vector<Match> got, want;
        const Status got_st = index->Query(q.pattern, q.tau, &got);
        const Status want_st = reference->Query(q.pattern, q.tau, &want);
        EXPECT_EQ(got_st.ToString(), want_st.ToString()) << q.pattern;
        EXPECT_EQ(got, want) << q.pattern;
        const FuzzyParams params{1, FuzzyMetric::kMismatch};
        EXPECT_EQ(index->QueryFuzzy(q.pattern, q.tau, params, &got).ToString(),
                  reference->QueryFuzzy(q.pattern, q.tau, params, &want)
                      .ToString());
        EXPECT_EQ(got, want) << q.pattern;
      }
      std::vector<std::vector<Match>> got, want;
      const std::vector<BatchQuery> valid(queries.begin(), queries.end() - 2);
      ASSERT_TRUE(index->QueryBatch(valid, &got).ok());
      ASSERT_TRUE(reference->QueryBatch(valid, &want).ok());
      EXPECT_EQ(got, want);
      EXPECT_EQ(index->QueryBatch(queries, &got).ToString(),
                reference->QueryBatch(queries, &want).ToString());
    }
  }
}

TEST(ShardedIndexTest, RandomizedAgreementWithMonolithicAndOracle) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    test::RandomStringSpec spec;
    spec.length = 150;
    spec.alphabet = 4;
    spec.theta = 0.5;
    spec.seed = seed;
    const UncertainString s = test::RandomUncertain(spec);

    ShardedIndexOptions options;
    options.index.transform.tau_min = 0.05;
    options.num_shards = 5;
    options.overlap = 10;
    const auto sharded = ShardedIndex::Build(s, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    const auto mono = SubstringIndex::Build(s, options.index);
    ASSERT_TRUE(mono.ok());

    Rng rng(seed * 77);
    for (int q = 0; q < 80; ++q) {
      const size_t len = 1 + rng.Uniform(11);
      std::string pattern;
      if (q % 3 == 0) {
        pattern = test::RandomPattern(4, len, rng.Next());
      } else {
        const int64_t start =
            static_cast<int64_t>(rng.Uniform(s.size() - len + 1));
        pattern = test::PatternFromString(s, start, len, rng.Next());
      }
      const double tau = 0.05 + 0.15 * static_cast<double>(rng.Uniform(4));
      std::vector<Match> got, want;
      ASSERT_TRUE(sharded->Query(pattern, tau, &got).ok());
      ASSERT_TRUE(mono->Query(pattern, tau, &want).ok());
      EXPECT_TRUE(test::SameMatches(got, want))
          << "pattern '" << pattern << "' tau " << tau;
      ExpectAgreesWithOracle(*sharded, s, pattern, tau);
    }
  }
}

TEST(ShardedIndexTest, CorrelationsAcrossShardBoundaries) {
  // 30 positions, 3 shards (begins 0/10/20). Rules whose dependency sits in
  // a *different* shard force the constant-rule rewrite; rules within one
  // shard keep exact case-1/case-2 resolution.
  UncertainString s;
  Rng rng(13);
  for (int i = 0; i < 30; ++i) {
    const uint8_t a = static_cast<uint8_t>('a' + rng.Uniform(2));
    const uint8_t b = a == 'a' ? 'b' : 'a';
    s.AddPosition({{a, 0.75}, {b, 0.25}});
  }
  struct Edge {
    int64_t pos, dep;
  };
  // In-shard (2->5), cross-shard near (9->12), cross-shard far (11->28),
  // backward cross-shard (21->3).
  for (const Edge e : {Edge{2, 5}, Edge{9, 12}, Edge{11, 28}, Edge{21, 3}}) {
    CorrelationRule rule;
    rule.pos = e.pos;
    rule.ch = s.options(e.pos)[0].ch;
    rule.dep_pos = e.dep;
    rule.dep_ch = s.options(e.dep)[0].ch;
    rule.prob_if_present = 0.875;
    rule.prob_if_absent = 0.25;
    ASSERT_TRUE(s.AddCorrelation(rule).ok());
  }

  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.05;
  options.num_shards = 3;
  options.overlap = 6;
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  Rng qrng(99);
  for (int q = 0; q < 120; ++q) {
    const size_t len = 1 + qrng.Uniform(7);
    const int64_t start =
        static_cast<int64_t>(qrng.Uniform(s.size() - len + 1));
    const std::string pattern =
        test::PatternFromString(s, start, len, qrng.Next());
    ExpectAgreesWithOracle(*index, s, pattern, 0.05);
    ExpectAgreesWithOracle(*index, s, pattern, 0.3);
  }
}

TEST(ShardedIndexTest, ParallelBuildMatchesSerialBuild) {
  test::RandomStringSpec spec;
  spec.length = 120;
  spec.seed = 17;
  const UncertainString s = test::RandomUncertain(spec);
  ShardedIndexOptions serial;
  serial.index.transform.tau_min = 0.05;
  serial.num_shards = 4;
  serial.overlap = 8;
  serial.num_threads = 1;
  ShardedIndexOptions parallel = serial;
  parallel.num_threads = 4;
  const auto a = ShardedIndex::Build(s, serial);
  const auto b = ShardedIndex::Build(s, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Construction is deterministic regardless of the thread count: the
  // persisted bytes must be identical.
  std::string blob_a, blob_b;
  ASSERT_TRUE(a->Save(&blob_a).ok());
  ASSERT_TRUE(b->Save(&blob_b).ok());
  EXPECT_EQ(blob_a, blob_b);
}

TEST(ShardedIndexTest, SaveLoadRoundTrip) {
  test::RandomStringSpec spec;
  spec.length = 90;
  spec.seed = 23;
  const UncertainString s = test::RandomUncertain(spec);
  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.05;
  options.num_shards = 4;
  options.overlap = 6;
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  std::string blob;
  ASSERT_TRUE(index->Save(&blob).ok());

  for (const int32_t threads : {1, 4}) {
    const auto loaded = ShardedIndex::Load(blob, threads);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_shards(), index->num_shards());
    EXPECT_EQ(loaded->options().overlap, index->options().overlap);
    Rng rng(1000 + static_cast<uint64_t>(threads));
    for (int q = 0; q < 40; ++q) {
      const size_t len = 1 + rng.Uniform(7);
      const int64_t start =
          static_cast<int64_t>(rng.Uniform(s.size() - len + 1));
      const std::string pattern =
          test::PatternFromString(s, start, len, rng.Next());
      std::vector<Match> got, want;
      ASSERT_TRUE(loaded->Query(pattern, 0.1, &got).ok());
      ASSERT_TRUE(index->Query(pattern, 0.1, &want).ok());
      EXPECT_TRUE(test::SameMatches(got, want)) << pattern;
    }
    // Re-saving the loaded index reproduces the same container.
    std::string blob2;
    ASSERT_TRUE(loaded->Save(&blob2).ok());
    EXPECT_EQ(blob2, blob);
  }
}

TEST(ShardedIndexTest, BatchMatchesLoopAndParallelFanout) {
  test::RandomStringSpec spec;
  spec.length = 140;
  spec.alphabet = 4;
  spec.seed = 29;
  const UncertainString s = test::RandomUncertain(spec);
  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.05;
  options.num_shards = 4;
  options.overlap = 9;
  for (const int32_t threads : {1, 4}) {
    options.num_threads = threads;
    const auto index = ShardedIndex::Build(s, options);
    ASSERT_TRUE(index.ok());
    Rng rng(41);
    std::vector<BatchQuery> queries;
    for (int q = 0; q < 100; ++q) {
      const size_t len = 1 + rng.Uniform(10);
      const int64_t start =
          static_cast<int64_t>(rng.Uniform(s.size() - len + 1));
      queries.push_back({test::PatternFromString(s, start, len, rng.Next()),
                         0.05 + 0.1 * static_cast<double>(rng.Uniform(3))});
    }
    std::vector<std::vector<Match>> batch;
    ASSERT_TRUE(index->QueryBatch(queries, &batch).ok());
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<Match> loop;
      ASSERT_TRUE(
          index->Query(queries[i].pattern, queries[i].tau, &loop).ok());
      EXPECT_TRUE(test::SameMatches(batch[i], loop))
          << "threads " << threads << " query #" << i;
    }
    // Batch validation failures name the offending query.
    std::vector<std::vector<Match>> out;
    const Status st =
        index->QueryBatch({{"ab", 0.1}, {std::string(11, 'a'), 0.1}}, &out);
    EXPECT_TRUE(st.IsNotSupported());
    EXPECT_NE(st.message().find("#1"), std::string::npos);
  }
}

TEST(ShardedIndexTest, HugeShardRequestStaysLoadable) {
  // Build clamps the shard count to the same bound Load enforces, so a
  // successfully saved index can always be read back.
  test::RandomStringSpec spec;
  spec.length = 200;
  spec.seed = 61;
  const UncertainString s = test::RandomUncertain(spec);
  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.1;
  options.num_shards = std::numeric_limits<int32_t>::max();
  options.overlap = 4;
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  EXPECT_LE(index->num_shards(), 100);  // n/2 clamp dominates here
  std::string blob;
  ASSERT_TRUE(index->Save(&blob).ok());
  EXPECT_TRUE(ShardedIndex::Load(blob).ok());
}

TEST(ShardedIndexTest, ShardCountClamping) {
  test::RandomStringSpec spec;
  spec.length = 10;
  spec.seed = 47;
  const UncertainString s = test::RandomUncertain(spec);
  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.05;
  options.num_shards = 64;  // clamped: every shard must own >= 2 positions
  options.overlap = 3;
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  EXPECT_LE(index->num_shards(), 5);
  EXPECT_GE(index->num_shards(), 2);
  for (int32_t k = 1; k < index->num_shards(); ++k) {
    EXPECT_GE(index->shard_begin(k) - index->shard_begin(k - 1), 2);
  }
  for (int q = 0; q < 20; ++q) {
    const std::string pattern =
        test::PatternFromString(s, q % 7, 1 + q % 4, 900 + q);
    ExpectAgreesWithOracle(*index, s, pattern, 0.1);
  }
}

TEST(ShardedIndexTest, EmptyAndTinyStrings) {
  {
    const auto index = ShardedIndex::Build(UncertainString(), {});
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(index->num_shards(), 1);
    std::vector<Match> out;
    ASSERT_TRUE(index->Query("a", 0.5, &out).ok());
    EXPECT_TRUE(out.empty());
    std::string blob;
    ASSERT_TRUE(index->Save(&blob).ok());
    const auto loaded = ShardedIndex::Load(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->num_shards(), 1);
  }
  {
    const UncertainString s = UncertainString::FromDeterministic("ab");
    ShardedIndexOptions options;
    options.num_shards = 8;
    const auto index = ShardedIndex::Build(s, options);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(index->num_shards(), 1);
    ExpectAgreesWithOracle(*index, s, "ab", 0.5);
    ExpectAgreesWithOracle(*index, s, "b", 0.5);
  }
}

TEST(ShardedIndexTest, StatsAndOptionsResolved) {
  test::RandomStringSpec spec;
  spec.length = 80;
  spec.seed = 53;
  const UncertainString s = test::RandomUncertain(spec);
  ShardedIndexOptions options;
  options.index.transform.tau_min = 0.05;
  options.num_shards = 4;
  options.overlap = 5;
  const auto index = ShardedIndex::Build(s, options);
  ASSERT_TRUE(index.ok());
  const auto stats = index->stats();
  EXPECT_EQ(stats.original_length, 80);
  EXPECT_EQ(stats.num_shards, 4);
  EXPECT_EQ(stats.overlap, 5);
  EXPECT_GT(stats.num_factors, 0u);
  EXPECT_GT(stats.transformed_length, 0u);
  EXPECT_GT(index->MemoryUsage(), 0u);
  EXPECT_EQ(index->options().num_shards, 4);
  EXPECT_EQ(index->options().overlap, 5);
  EXPECT_GE(index->options().num_threads, 1);  // 0 resolves to hardware
  EXPECT_EQ(index->shard_begin(0), 0);
  // Compact per-shard mode works through the engine unchanged.
  ShardedIndexOptions compact = options;
  compact.index.compact = true;
  const auto cindex = ShardedIndex::Build(s, compact);
  ASSERT_TRUE(cindex.ok());
  for (int q = 0; q < 20; ++q) {
    const std::string pattern =
        test::PatternFromString(s, (q * 7) % 70, 1 + q % 6, 700 + q);
    ExpectAgreesWithOracle(*cindex, s, pattern, 0.1);
  }
}

}  // namespace
}  // namespace pti
