// Unit tests for the adaptive meta-optimizer (qo/adaptive.h): feature
// extraction and its relabeling invariance, the feedback record codec and
// its corruption rejection, the store's commit-order independence and
// dedup, the explore/exploit decision rule, persistence (save/load,
// torn-tail salvage, write-through attachment), the never-worse-than-
// fallback guarantee, and decision-log replay.

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/runlog.h"
#include "qo/adaptive.h"
#include "qo/fingerprint.h"
#include "qo/persist.h"
#include "qo/qon.h"
#include "qo/registry.h"
#include "qo/workloads.h"
#include "util/random.h"

namespace aqo {
namespace {

std::vector<int> RandomPermutation(int n, Rng* rng) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  return perm;
}

FeedbackRecord SampleRecord(uint64_t salt) {
  FeedbackRecord rec;
  rec.family = AdaptiveFamily::kQon;
  rec.optimizer = "greedy";
  rec.knob_hash = 0x1234 + salt;
  rec.features.n = 7;
  rec.features.edges = 11;
  rec.features.edge_density = 11.0 / 21.0;
  rec.features.log_size_mean = 12.5;
  rec.features.log_size_min = 4.0;
  rec.features.log_size_max = 16.75;
  rec.features.sel_log_mean = -3.25;
  rec.features.sel_log_min = -9.0;
  rec.features.wl_class = 0xfeedbeef + salt;
  rec.feasible = true;
  rec.cost_log2 = 42.125 + static_cast<double>(salt);
  rec.regret_log2 = 0.5;
  rec.evaluations = 100 + salt;
  rec.status = PlanStatus::kComplete;
  return rec;
}

// --- Features ---

TEST(AdaptiveFeatures, BitwiseInvariantUnderRelabeling) {
  Rng rng(901);
  for (int trial = 0; trial < 20; ++trial) {
    int n = static_cast<int>(rng.UniformInt(4, 9));
    QonInstance base = RandomQonWorkload(n, &rng);
    QonInstance relabeled =
        PermuteQonInstance(base, RandomPermutation(n, &rng));
    InstanceFeatures a = ExtractFeatures(CanonicalizeQon(base));
    InstanceFeatures b = ExtractFeatures(CanonicalizeQon(relabeled));
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.edge_density, b.edge_density);
    EXPECT_EQ(a.log_size_mean, b.log_size_mean);
    EXPECT_EQ(a.log_size_min, b.log_size_min);
    EXPECT_EQ(a.log_size_max, b.log_size_max);
    EXPECT_EQ(a.sel_log_mean, b.sel_log_mean);
    EXPECT_EQ(a.sel_log_min, b.sel_log_min);
    EXPECT_EQ(a.access_log_mean, b.access_log_mean);
    EXPECT_EQ(a.access_log_max, b.access_log_max);
    EXPECT_EQ(a.wl_class, b.wl_class) << "trial=" << trial;
  }
}

TEST(AdaptiveFeatures, QohCarriesMemoryAndEta) {
  Rng rng(902);
  QohInstance inst = RandomQohWorkload(6, &rng, 0.4);
  InstanceFeatures f = ExtractFeatures(CanonicalizeQoh(inst));
  EXPECT_EQ(f.n, 6);
  EXPECT_EQ(f.eta, inst.eta());
  EXPECT_NE(f.memory_log2, 0.0);

  QohInstance relabeled = PermuteQohInstance(inst, RandomPermutation(6, &rng));
  InstanceFeatures g = ExtractFeatures(CanonicalizeQoh(relabeled));
  EXPECT_EQ(f.memory_log2, g.memory_log2);
  EXPECT_EQ(f.eta, g.eta);
  EXPECT_EQ(f.wl_class, g.wl_class);
}

// --- Codec ---

TEST(AdaptiveCodec, RoundTripsEveryField) {
  FeedbackRecord rec = SampleRecord(7);
  rec.family = AdaptiveFamily::kQoh;
  rec.features.memory_log2 = 9.0;
  rec.features.eta = 0.75;
  rec.status = PlanStatus::kBudgetExhausted;
  std::string payload = EncodeFeedbackPayload(rec);
  FeedbackRecord back;
  std::string error;
  ASSERT_TRUE(DecodeFeedbackPayload(payload, &back, &error)) << error;
  EXPECT_EQ(back.family, rec.family);
  EXPECT_EQ(back.optimizer, rec.optimizer);
  EXPECT_EQ(back.knob_hash, rec.knob_hash);
  EXPECT_EQ(back.features.n, rec.features.n);
  EXPECT_EQ(back.features.edges, rec.features.edges);
  EXPECT_EQ(back.features.memory_log2, rec.features.memory_log2);
  EXPECT_EQ(back.features.eta, rec.features.eta);
  EXPECT_EQ(back.features.wl_class, rec.features.wl_class);
  EXPECT_EQ(back.feasible, rec.feasible);
  EXPECT_EQ(back.cost_log2, rec.cost_log2);
  EXPECT_EQ(back.regret_log2, rec.regret_log2);
  EXPECT_EQ(back.evaluations, rec.evaluations);
  EXPECT_EQ(back.status, rec.status);
}

TEST(AdaptiveCodec, RejectsMalformedPayloads) {
  std::string payload = EncodeFeedbackPayload(SampleRecord(0));
  FeedbackRecord out;
  std::string error;

  // Truncation at every prefix length must fail cleanly, never crash.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeFeedbackPayload(std::string_view(payload.data(), len), &out,
                              &error))
        << "prefix " << len << " decoded";
  }
  // Trailing garbage: exact-length check.
  EXPECT_FALSE(DecodeFeedbackPayload(payload + "x", &out, &error));

  // Family and status bytes out of range.
  std::string bad = payload;
  bad[0] = 7;
  EXPECT_FALSE(DecodeFeedbackPayload(bad, &out, &error));
  bad = payload;
  bad[2] = 9;
  EXPECT_FALSE(DecodeFeedbackPayload(bad, &out, &error));
}

// --- Store: commit determinism, dedup, decisions ---

TEST(FeedbackStore, CommitIsOrderIndependentAndDedups) {
  FeedbackRecord a = SampleRecord(1);
  FeedbackRecord b = SampleRecord(2);
  FeedbackRecord c = SampleRecord(3);

  FeedbackStore s1;
  s1.Record(a);
  s1.Record(b);
  s1.Record(c);
  s1.Record(b);  // duplicate within one pending batch
  EXPECT_EQ(s1.PendingSize(), 4u);
  EXPECT_EQ(s1.Commit(), 3u);
  EXPECT_EQ(s1.CommittedSize(), 3u);
  EXPECT_EQ(s1.PendingSize(), 0u);

  FeedbackStore s2;
  s2.Record(c);
  s2.Record(b);
  s2.Record(a);
  EXPECT_EQ(s2.Commit(), 3u);

  // Same committed state from any arrival order: identical decisions.
  std::vector<std::string> candidates = {"greedy", "ii"};
  Recommendation r1 = s1.Recommend(a.features, AdaptiveFamily::kQon,
                                   candidates, a.knob_hash, 1.1, 4, 1, 99);
  Recommendation r2 = s2.Recommend(a.features, AdaptiveFamily::kQon,
                                   candidates, a.knob_hash, 1.1, 4, 1, 99);
  EXPECT_EQ(r1.optimizer, r2.optimizer);
  EXPECT_EQ(r1.explored, r2.explored);

  // Committing again (or duplicates) is a no-op.
  s1.Record(a);
  EXPECT_EQ(s1.Commit(), 0u);
  EXPECT_EQ(s1.CommittedSize(), 3u);
}

TEST(FeedbackStore, ExploresUntriedThenExploitsCheapestEligible) {
  FeedbackStore store;
  std::vector<std::string> candidates = {"greedy", "ii", "sa"};
  InstanceFeatures probe = SampleRecord(0).features;

  // Empty store: every candidate is under-tried, so the decision is a
  // seeded exploration draw — deterministic in decision_seed.
  Recommendation cold = store.Recommend(probe, AdaptiveFamily::kQon,
                                        candidates, 0, 1.1, 4, 1, 123);
  EXPECT_TRUE(cold.explored);
  Recommendation cold2 = store.Recommend(probe, AdaptiveFamily::kQon,
                                         candidates, 0, 1.1, 4, 1, 123);
  EXPECT_EQ(cold.optimizer, cold2.optimizer);

  // Feed trials: `ii` always hits zero regret at modest cost, `greedy`
  // has high regret, `sa` zero regret but much more effort.
  for (uint64_t i = 0; i < 3; ++i) {
    FeedbackRecord rec = SampleRecord(0);
    rec.knob_hash = 0;
    rec.optimizer = "greedy";
    rec.regret_log2 = 5.0;
    rec.evaluations = 10;
    store.Record(rec);
    rec.optimizer = "ii";
    rec.regret_log2 = 0.0;
    rec.evaluations = 200;
    store.Record(rec);
    rec.optimizer = "sa";
    rec.regret_log2 = 0.0;
    rec.evaluations = 5000;
    store.Record(rec);
    // Distinct cost so the three rounds are not deduped away.
    rec.cost_log2 += static_cast<double>(i);
  }
  // Records above are identical per round → dedup keeps one per
  // optimizer; min_trials=1 is satisfied for all three.
  store.Commit();
  Recommendation warm = store.Recommend(probe, AdaptiveFamily::kQon,
                                        candidates, 0, 1.1, 4, 1, 123);
  EXPECT_FALSE(warm.explored);
  EXPECT_EQ(warm.optimizer, "ii");
  ASSERT_EQ(warm.candidates.size(), 3u);
  EXPECT_FALSE(warm.candidates[0].eligible);  // greedy: regret too high
  EXPECT_TRUE(warm.candidates[1].eligible);
  EXPECT_TRUE(warm.candidates[2].eligible);  // sa eligible but pricier
}

// --- Persistence ---

TEST(FeedbackStore, SaveLoadRoundTripAndTornTailSalvage) {
  std::string path = testing::TempDir() + "/aqo_adaptive_store_test.bin";
  std::remove(path.c_str());

  FeedbackStore store;
  for (uint64_t i = 0; i < 5; ++i) store.Record(SampleRecord(i));
  ASSERT_EQ(store.Commit(), 5u);
  std::string error;
  ASSERT_TRUE(store.SaveTo(path, &error)) << error;

  FeedbackStore loaded;
  FeedbackLoadStats stats = loaded.LoadFrom(path);
  EXPECT_TRUE(stats.existed);
  EXPECT_EQ(stats.records, 5u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_TRUE(stats.damage.empty()) << stats.damage;
  EXPECT_EQ(loaded.CommittedSize(), 5u);

  // Tear the tail: append half of a frame. Load salvages all 5 intact
  // records and reports the torn tail.
  std::string frame = EncodeFramedRecord(EncodeFeedbackPayload(
      SampleRecord(99)));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(frame.data(),
              static_cast<std::streamsize>(frame.size() / 2));
  }
  FeedbackStore salvaged;
  stats = salvaged.LoadFrom(path);
  EXPECT_EQ(stats.records, 5u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_TRUE(stats.damage.empty()) << stats.damage;

  // AttachFile repairs the tail, then write-through appends new commits.
  FeedbackStore writer;
  stats = writer.LoadFrom(path);
  ASSERT_EQ(stats.records, 5u);
  ASSERT_TRUE(writer.AttachFile(path, &error)) << error;
  writer.Record(SampleRecord(50));
  EXPECT_EQ(writer.Commit(), 1u);

  FeedbackStore reread;
  stats = reread.LoadFrom(path);
  EXPECT_EQ(stats.records, 6u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_TRUE(stats.damage.empty()) << stats.damage;

  // A missing file is a clean no-op.
  std::remove(path.c_str());
  FeedbackStore empty;
  stats = empty.LoadFrom(path);
  EXPECT_FALSE(stats.existed);
  EXPECT_EQ(stats.records, 0u);
}

// --- The meta-optimizer ---

TEST(AdaptiveOptimizer, NeverWorseThanFallbackAndSameSeedIdentical) {
  Rng rng(903);
  for (int trial = 0; trial < 10; ++trial) {
    int n = static_cast<int>(rng.UniformInt(5, 8));
    QonInstance inst = RandomQonWorkload(n, &rng);

    FeedbackStore store;
    OptimizerOptions options;
    options.adaptive.store = &store;
    options.adaptive.seed = 17;

    OptimizerResult adaptive = AdaptiveQonOptimizer(inst, options, nullptr);
    OptimizerResult fallback = GreedyQonOptimizer(inst, options);
    ASSERT_TRUE(adaptive.feasible);
    ASSERT_TRUE(fallback.feasible);
    EXPECT_LE(adaptive.cost.Log2(), fallback.cost.Log2()) << "trial=" << trial;
    // The returned sequence really costs what the result claims.
    EXPECT_EQ(QonSequenceCost(inst, adaptive.sequence).Log2(),
              adaptive.cost.Log2());

    // Same seed + same (empty-committed) store state → identical bits;
    // the caller's Rng is never consumed, so passing one changes nothing.
    FeedbackStore store2;
    OptimizerOptions options2 = options;
    options2.adaptive.store = &store2;
    Rng unused(555);
    OptimizerResult again = AdaptiveQonOptimizer(inst, options2, &unused);
    EXPECT_EQ(adaptive.cost.Log2(), again.cost.Log2());
    EXPECT_EQ(adaptive.sequence, again.sequence);
    EXPECT_EQ(adaptive.evaluations, again.evaluations);
  }
}

TEST(AdaptiveOptimizer, QohNeverWorseThanFallback) {
  Rng rng(904);
  for (int trial = 0; trial < 6; ++trial) {
    QohInstance inst = RandomQohWorkload(6, &rng, 0.5);
    FeedbackStore store;
    QohOptimizerOptions options;
    options.adaptive.store = &store;
    QohOptimizerResult adaptive = AdaptiveQohOptimizer(inst, options, nullptr);
    QohOptimizerResult fallback = GreedyQohOptimizer(inst);
    if (!fallback.feasible) continue;
    ASSERT_TRUE(adaptive.feasible);
    EXPECT_LE(adaptive.cost.Log2(), fallback.cost.Log2()) << "trial=" << trial;
  }
}

TEST(AdaptiveOptimizer, LearnsAcrossCommits) {
  // After committing a batch of outcomes, decisions may change (the store
  // is warmer) but the guarantee must hold from ANY store state.
  Rng rng(905);
  FeedbackStore store;
  OptimizerOptions options;
  options.adaptive.store = &store;
  options.adaptive.min_trials = 1;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      QonInstance inst = RandomQonWorkload(6, &rng);
      OptimizerResult adaptive = AdaptiveQonOptimizer(inst, options, nullptr);
      OptimizerResult fallback = GreedyQonOptimizer(inst, options);
      ASSERT_TRUE(adaptive.feasible);
      EXPECT_LE(adaptive.cost.Log2(), fallback.cost.Log2());
    }
    CommitAdaptiveFeedback(options.adaptive);
  }
  EXPECT_GT(store.CommittedSize(), 0u);
}

// --- Decision-log replay ---

TEST(AdaptiveReplay, ReconstructsEveryDecision) {
  std::string path = testing::TempDir() + "/aqo_adaptive_replay_test.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::RunLog::OpenGlobal(path));

  Rng rng(906);
  FeedbackStore store;
  OptimizerOptions options;
  options.adaptive.store = &store;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 5; ++i) {
      QonInstance inst = RandomQonWorkload(6, &rng);
      AdaptiveQonOptimizer(inst, options, nullptr);
    }
    CommitAdaptiveFeedback(options.adaptive);
  }
  obs::RunLog::CloseGlobal();

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  FeedbackStore replay_store;
  DecisionReplayStats stats = ReplayDecisionLog(in, &replay_store);
  EXPECT_EQ(stats.decisions, 10u);
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_EQ(stats.mismatches, 0u);
  EXPECT_TRUE(stats.error.empty()) << stats.error;
  // The replayed store converged to the original's committed state.
  EXPECT_EQ(replay_store.CommittedSize(), store.CommittedSize());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aqo
