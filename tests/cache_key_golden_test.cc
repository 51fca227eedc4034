// Golden values for the persisted hashes: the plan-cache keys
// (QonPlanCacheKey / QohPlanCacheKey) and the feedback-store knob hashes
// (AdaptiveKnobHash). Plan journals and feedback files on disk are keyed
// by these bits, so a reordered or retagged fold would silently orphan
// every stored entry and record. Each options struct sets every folded
// knob to a non-default value; the expected digests were captured before
// the family traits (qo/family.h) took over the folds.

#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "qo/adaptive.h"
#include "qo/service.h"

namespace aqo {
namespace {

constexpr Hash128 kFingerprint{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
constexpr uint64_t kSeed = 42;

AdaptiveKnobs Adaptive() {
  AdaptiveKnobs a;
  a.fallback = "ii";
  a.candidates = "greedy,sa";
  a.quality_target = 1.5;
  a.k_neighbors = 7;
  a.min_trials = 4;
  a.seed = 0xabcdefULL;
  return a;
}

OptimizerOptions QonKnobs() {
  OptimizerOptions o;
  o.forbid_cartesian = true;
  o.samples = 123;
  o.restarts = 7;
  o.sa.iterations = 4567;
  o.sa.initial_temperature = 3.25;
  o.sa.cooling = 0.9875;
  o.sa.restarts = 5;
  o.ga.population = 33;
  o.ga.generations = 44;
  o.ga.crossover_rate = 0.625;
  o.ga.mutation_rate = 0.0625;
  o.ga.tournament = 5;
  o.ga.elites = 3;
  o.bnb_node_limit = 9876;
  o.budget.max_evaluations = 5555;
  o.adaptive = Adaptive();
  return o;
}

QohOptimizerOptions QohKnobs() {
  QohOptimizerOptions o;
  o.samples = 77;
  o.restarts = 9;
  o.sentinel_first = 3;
  o.sa.iterations = 2222;
  o.sa.initial_temperature = 2.5;
  o.sa.cooling = 0.995;
  o.sa.restarts = 3;
  o.budget.max_evaluations = 4444;
  o.adaptive = Adaptive();
  return o;
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::string Hex(const Hash128& h) { return Hex(h.lo) + " " + Hex(h.hi); }

TEST(CacheKeyGolden, QonPlanCacheKey) {
  EXPECT_EQ(Hex(QonPlanCacheKey(kFingerprint, "sa", QonKnobs(), kSeed)),
            "0x1449c4f2b374ec4e 0xd6ac00e5c0b18f78");
  // Aliases fold their canonical name.
  EXPECT_EQ(Hex(QonPlanCacheKey(kFingerprint, "ga", QonKnobs(), kSeed)),
            Hex(QonPlanCacheKey(kFingerprint, "genetic", QonKnobs(), kSeed)));
  EXPECT_EQ(Hex(QonPlanCacheKey(kFingerprint, "dp", OptimizerOptions{}, 0)),
            "0x93215d579578522a 0x42cf141f4d4463b0");
}

TEST(CacheKeyGolden, QohPlanCacheKey) {
  EXPECT_EQ(Hex(QohPlanCacheKey(kFingerprint, "ii", QohKnobs(), kSeed)),
            "0xdb0a16c618a8d819 0xa0ddd379abb9e59b");
  EXPECT_EQ(Hex(QohPlanCacheKey(kFingerprint, "greedy", QohOptimizerOptions{},
                                0)),
            "0xbe16a1bad6b90a81 0x8fc1e94cbeae26c0");
}

TEST(CacheKeyGolden, AdaptiveKnobHash) {
  EXPECT_EQ(Hex(AdaptiveKnobHash(QonKnobs())), "0x82bdd31262d7f8aa");
  EXPECT_EQ(Hex(AdaptiveKnobHash(QohKnobs())), "0xfacf739b1e98eff9");
  EXPECT_EQ(Hex(AdaptiveKnobHash(OptimizerOptions{})), "0xe6a4a2c92fd24ae1");
  EXPECT_EQ(Hex(AdaptiveKnobHash(QohOptimizerOptions{})),
            "0xe89171dbe4eb0843");
}

// Wall-clock deadlines, pools, stores and sinks never shape a cacheable
// result, so they stay out of every hash.
TEST(CacheKeyGolden, RuntimeOnlyFieldsAreNotFolded) {
  FeedbackStore store;
  OptimizerOptions qon = QonKnobs();
  qon.budget.deadline_ms = 12.5;
  qon.adaptive.store = &store;
  EXPECT_EQ(QonPlanCacheKey(kFingerprint, "sa", qon, kSeed),
            QonPlanCacheKey(kFingerprint, "sa", QonKnobs(), kSeed));
  EXPECT_EQ(AdaptiveKnobHash(qon), AdaptiveKnobHash(QonKnobs()));
  QohOptimizerOptions qoh = QohKnobs();
  qoh.budget.deadline_ms = 12.5;
  qoh.adaptive.store = &store;
  EXPECT_EQ(QohPlanCacheKey(kFingerprint, "ii", qoh, kSeed),
            QohPlanCacheKey(kFingerprint, "ii", QohKnobs(), kSeed));
  EXPECT_EQ(AdaptiveKnobHash(qoh), AdaptiveKnobHash(QohKnobs()));
}

}  // namespace
}  // namespace aqo
