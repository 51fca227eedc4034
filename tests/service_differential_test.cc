// The batch service's determinism contract (qo/service.h), end to end:
// for EVERY optimizer in the registry and every thread count, a batch of
// relabeled-duplicate-heavy instances optimizes to bit-identical results
// (costs, sequences, evaluation counts) whether the cache is off and
// serial, off and parallel, cold, or warm — and a warm cache serves every
// instance.

#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qo/adaptive.h"
#include "qo/fingerprint.h"
#include "qo/overload.h"
#include "qo/plan_cache.h"
#include "qo/registry.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace aqo {
namespace {

constexpr uint64_t kSeed = 5;
const int kThreadCounts[] = {1, 2, 4};

std::vector<int> RandomPermutation(int n, Rng* rng) {
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  return perm;
}

// Three bases (one a tree, so kbz has a feasible path), each followed by
// two relabeled duplicates: 9 instances, 2/3 of them duplicate work.
std::vector<QonInstance> QonBatchInstances() {
  Rng rng(41);
  std::vector<QonInstance> bases;
  bases.push_back(RandomQonWorkload(7, &rng));
  WorkloadOptions tree;
  tree.shape = WorkloadShape::kTree;
  bases.push_back(RandomQonWorkload(7, &rng, tree));
  bases.push_back(RandomQonWorkload(6, &rng));
  std::vector<QonInstance> batch;
  for (const QonInstance& base : bases) {
    batch.push_back(base);
    for (int d = 0; d < 2; ++d) {
      batch.push_back(PermuteQonInstance(
          base, RandomPermutation(base.NumRelations(), &rng)));
    }
  }
  return batch;
}

std::vector<QohInstance> QohBatchInstances() {
  Rng rng(42);
  std::vector<QohInstance> bases;
  bases.push_back(RandomQohWorkload(6, &rng, 0.5));
  bases.push_back(RandomQohWorkload(5, &rng, 0.8));
  bases.push_back(RandomQohWorkload(6, &rng, 0.3));
  std::vector<QohInstance> batch;
  for (const QohInstance& base : bases) {
    batch.push_back(base);
    for (int d = 0; d < 2; ++d) {
      batch.push_back(PermuteQohInstance(
          base, RandomPermutation(base.NumRelations(), &rng)));
    }
  }
  return batch;
}

OptimizerOptions FastQonKnobs() {
  OptimizerOptions o;
  o.samples = 80;
  o.restarts = 2;
  o.sa.iterations = 300;
  o.sa.restarts = 1;
  o.ga.population = 16;
  o.ga.generations = 8;
  return o;
}

QohOptimizerOptions FastQohKnobs() {
  QohOptimizerOptions o;
  o.samples = 50;
  o.restarts = 2;
  o.sa.iterations = 200;
  o.sa.restarts = 1;
  return o;
}

template <typename Item>
void ExpectSameItems(const std::string& label, const std::vector<Item>& a,
                     const std::vector<Item>& b) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint) << label << " item " << i;
    EXPECT_EQ(a[i].result.feasible, b[i].result.feasible)
        << label << " item " << i;
    EXPECT_EQ(a[i].result.status, b[i].result.status)
        << label << " item " << i;
    if (!a[i].result.feasible) continue;
    EXPECT_EQ(a[i].result.cost.Log2(), b[i].result.cost.Log2())
        << label << " item " << i;
    EXPECT_EQ(a[i].result.sequence, b[i].result.sequence)
        << label << " item " << i;
    EXPECT_EQ(a[i].result.evaluations, b[i].result.evaluations)
        << label << " item " << i;
  }
}

// The overload governor degrades a request by running the same entry
// with its effort knobs clamped (qo/overload.h), and the degraded plan is
// cached like any other. It may only be served to a request whose own
// cold run yields the same bits. Here the request's knobs already sit at
// the clamps, so the degraded and undegraded runs share one cache key: the
// undegraded request, uncapped and capped at 200 evaluations, must match
// its cold uncached run bit for bit, evaluations and status included.
TEST(ServiceDifferential, QonDegradedEntriesMatchUndegradedColdRuns) {
  Rng rng(44);
  std::vector<QonInstance> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(RandomQonWorkload(20, &rng));
  OptimizerOptions knobs;  // at the QO_N entries' degrade clamps
  knobs.restarts = 2;
  knobs.sa.restarts = 1;
  knobs.sa.iterations = 2000;
  knobs.ga.population = 16;
  knobs.ga.generations = 16;
  for (const char* name : {"ii", "sa", "genetic"}) {
    for (uint64_t cap : {uint64_t{0}, uint64_t{200}}) {
      std::string label = std::string(name) + " cap=" + std::to_string(cap);
      BatchOptions options;
      options.optimizer = name;
      options.qon = knobs;
      options.qon.budget.max_evaluations = cap;
      options.seed = kSeed;
      std::vector<QonBatchItem> cold = OptimizeQonBatch(batch, options);

      PlanCache cache;
      BatchOptions degraded = options;
      degraded.cache = &cache;
      const OptimizerRegistry& registry = OptimizerRegistry::Qon();
      ASSERT_EQ(Degrade(registry, *registry.Find(name), &degraded.qon).name,
                name)
          << label;
      OptimizeQonBatch(batch, degraded);

      options.cache = &cache;
      std::vector<QonBatchItem> served = OptimizeQonBatch(batch, options);
      ExpectSameItems(label, cold, served);
      for (size_t i = 0; i < served.size(); ++i) {
        EXPECT_TRUE(served[i].from_cache) << label << " item " << i;
      }
    }
  }
}

TEST(ServiceDifferential, QohDegradedEntriesMatchUndegradedColdRuns) {
  Rng rng(45);
  std::vector<QohInstance> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(RandomQohWorkload(12, &rng, 0.5));
  }
  QohOptimizerOptions knobs;  // at the QO_H entries' degrade clamps
  knobs.restarts = 2;
  knobs.sa.restarts = 1;
  knobs.sa.iterations = 1000;
  for (const char* name : {"ii", "sa"}) {
    for (uint64_t cap : {uint64_t{0}, uint64_t{200}}) {
      std::string label = std::string(name) + " cap=" + std::to_string(cap);
      BatchOptions options;
      options.optimizer = name;
      options.qoh = knobs;
      options.qoh.budget.max_evaluations = cap;
      options.seed = kSeed;
      std::vector<QohBatchItem> cold = OptimizeQohBatch(batch, options);

      PlanCache cache;
      BatchOptions degraded = options;
      degraded.cache = &cache;
      const QohOptimizerRegistry& registry = QohOptimizerRegistry::Get();
      ASSERT_EQ(Degrade(registry, *registry.Find(name), &degraded.qoh).name,
                name)
          << label;
      OptimizeQohBatch(batch, degraded);

      options.cache = &cache;
      std::vector<QohBatchItem> served = OptimizeQohBatch(batch, options);
      ExpectSameItems(label, cold, served);
      for (size_t i = 0; i < served.size(); ++i) {
        EXPECT_TRUE(served[i].from_cache) << label << " item " << i;
      }
    }
  }
}

TEST(ServiceDifferential, QonCacheAndThreadsNeverChangeAnyBit) {
  std::vector<QonInstance> batch = QonBatchInstances();
  for (const std::string& name : OptimizerRegistry::Qon().Names()) {
    const bool cacheable = OptimizerRegistry::Qon().Find(name)->cacheable;
    BatchOptions options;
    options.optimizer = name;
    options.qon = FastQonKnobs();
    options.seed = kSeed;

    // Stateful entries (adaptive) decide from their feedback store, so
    // every run gets a fresh one: the differential contract is "same
    // initial store state => same bits", not "same bits regardless of
    // what the store learned in between".
    auto run = [&batch](BatchOptions opts) {
      FeedbackStore store;
      opts.qon.adaptive.store = &store;
      return OptimizeQonBatch(batch, opts);
    };

    // Reference: cache off, serial.
    std::vector<QonBatchItem> reference = run(options);

    PlanCache shared_cache;
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      std::string label = name + " threads=" + std::to_string(threads);

      options.pool = &pool;
      options.cache = nullptr;
      ExpectSameItems(label + " nocache", reference, run(options));

      PlanCache cold_cache;
      options.cache = &cold_cache;
      std::vector<QonBatchItem> cold = run(options);
      ExpectSameItems(label + " cold", reference, cold);

      std::vector<QonBatchItem> warm = run(options);
      ExpectSameItems(label + " warm", reference, warm);
      for (size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(warm[i].from_cache, cacheable)
            << label << " warm item " << i;
      }
      if (cacheable) {
        EXPECT_GT(cold_cache.GetStats().hits, 0u) << label;
      } else {
        // Stateful entries must never be served from (or fill) the cache.
        EXPECT_EQ(cold_cache.GetStats().entries, 0u) << label;
      }

      // A cache shared across different thread counts must agree too.
      options.cache = &shared_cache;
      ExpectSameItems(label + " shared", reference, run(options));
    }
  }
}

TEST(ServiceDifferential, QohCacheAndThreadsNeverChangeAnyBit) {
  std::vector<QohInstance> batch = QohBatchInstances();
  for (const std::string& name : QohOptimizerRegistry::Get().Names()) {
    const bool cacheable = QohOptimizerRegistry::Get().Find(name)->cacheable;
    BatchOptions options;
    options.optimizer = name;
    options.qoh = FastQohKnobs();
    options.seed = kSeed;

    // Fresh feedback store per run; see the QO_N test above.
    auto run = [&batch](BatchOptions opts) {
      FeedbackStore store;
      opts.qoh.adaptive.store = &store;
      return OptimizeQohBatch(batch, opts);
    };

    std::vector<QohBatchItem> reference = run(options);

    PlanCache shared_cache;
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      std::string label = name + " threads=" + std::to_string(threads);

      options.pool = &pool;
      options.cache = nullptr;
      std::vector<QohBatchItem> parallel = run(options);
      ExpectSameItems(label + " nocache", reference, parallel);
      for (size_t i = 0; i < parallel.size(); ++i) {
        if (!reference[i].result.feasible) continue;
        EXPECT_EQ(reference[i].result.decomposition.starts,
                  parallel[i].result.decomposition.starts)
            << label << " item " << i;
      }

      PlanCache cold_cache;
      options.cache = &cold_cache;
      std::vector<QohBatchItem> cold = run(options);
      ExpectSameItems(label + " cold", reference, cold);

      std::vector<QohBatchItem> warm = run(options);
      ExpectSameItems(label + " warm", reference, warm);
      for (size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(warm[i].from_cache, cacheable)
            << label << " warm item " << i;
        if (!reference[i].result.feasible) continue;
        EXPECT_EQ(reference[i].result.decomposition.starts,
                  warm[i].result.decomposition.starts)
            << label << " item " << i;
      }
      if (cacheable) {
        EXPECT_GT(cold_cache.GetStats().hits, 0u) << label;
      } else {
        EXPECT_EQ(cold_cache.GetStats().entries, 0u) << label;
      }

      options.cache = &shared_cache;
      ExpectSameItems(label + " shared", reference, run(options));
    }
  }
}

// The sentinel_first knob is caller-label-relative; the service must
// remap it per instance, so pinning relation 0 in the base and relation
// perm[0]... in a duplicate are different cache keys — but each item's
// result still matches its own serial cold run bit for bit.
TEST(ServiceDifferential, QohSentinelFirstRemapsPerInstance) {
  Rng rng(43);
  QohInstance base = RandomQohWorkload(6, &rng, 0.5);
  std::vector<QohInstance> batch = {
      base, PermuteQohInstance(base, RandomPermutation(6, &rng))};

  BatchOptions options;
  options.optimizer = "random";
  options.qoh = FastQohKnobs();
  options.qoh.sentinel_first = 0;
  options.seed = kSeed;

  std::vector<QohBatchItem> serial = OptimizeQohBatch(batch, options);
  PlanCache cache;
  options.cache = &cache;
  std::vector<QohBatchItem> cached = OptimizeQohBatch(batch, options);
  ExpectSameItems("sentinel", serial, cached);
  for (const QohBatchItem& item : cached) {
    if (!item.result.feasible) continue;
    ASSERT_FALSE(item.result.sequence.empty());
    EXPECT_EQ(item.result.sequence.front(), 0);  // pinned in caller labels
  }
}

}  // namespace
}  // namespace aqo
