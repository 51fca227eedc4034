// Tests for the approximate neighbourhood-pricing library (qo/fast_eval.h):
//
//  - SIMD/scalar kernel parity: the vectorized row kernels are
//    bit-identical to their scalar reference versions (only IEEE-exact
//    add/min operations are vectorized).
//  - Error bound: every fast price — base cost, the batched adjacent
//    pass, arbitrary PriceSwap — is within EpsLog2() of the exact
//    evaluator across seeded random instances.
//  - Exact feasibility (QO_H): the fast feasibility verdict has no error
//    bar at all.
//  - Counter attribution: fast probes are charged to the qo.fast_eval.*
//    counter family, and the optimizers charge nothing there.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "qo/cost_eval.h"
#include "qo/fast_eval.h"
#include "qo/optimizers.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "qo/workloads.h"
#include "util/random.h"

namespace aqo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- kernel parity ------------------------------------------------------

std::vector<double> RandomRow(int n, Rng* rng, bool with_inf) {
  std::vector<double> row(static_cast<size_t>(n));
  for (double& x : row) {
    x = rng->UniformReal(-1000.0, 1000.0);
    if (with_inf && rng->UniformInt(0, 9) == 0) {
      x = rng->UniformInt(0, 1) == 0 ? kInf : -kInf;
    }
  }
  return row;
}

TEST(FastEvalKernels, VectorizedRowKernelsMatchScalarBitForBit) {
  Rng rng(17);
  for (int n : {1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 64, 100, 257}) {
    std::vector<double> a = RandomRow(n, &rng, /*with_inf=*/true);
    std::vector<double> b = RandomRow(n, &rng, /*with_inf=*/true);
    size_t bytes = static_cast<size_t>(n) * sizeof(double);

    std::vector<double> out(static_cast<size_t>(n));
    std::vector<double> ref(static_cast<size_t>(n));
    fast_eval_internal::RowMin(out.data(), a.data(), b.data(), n);
    fast_eval_internal::RowMinScalar(ref.data(), a.data(), b.data(), n);
    EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), bytes)) << "RowMin n=" << n;

    fast_eval_internal::RowAdd(out.data(), a.data(), b.data(), n);
    fast_eval_internal::RowAddScalar(ref.data(), a.data(), b.data(), n);
    EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), bytes)) << "RowAdd n=" << n;

    out = a;
    ref = a;
    fast_eval_internal::RowMinInPlace(out.data(), b.data(), n);
    fast_eval_internal::RowMinInPlaceScalar(ref.data(), b.data(), n);
    EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), bytes))
        << "RowMinInPlace n=" << n;
  }
}

TEST(FastEvalKernels, MinTiesResolveIdenticallyAcrossPaths) {
  // Equal values in both rows: VMINPD returns its second operand on
  // equality, and the scalar kernel is written to match. With only
  // bit-identical equal inputs here, any resolution is byte-equal — this
  // guards the +0.0 / -0.0 case where it is not.
  std::vector<double> a = {0.0, -0.0, 1.0, -0.0, 0.0, 5.0, -0.0, 0.0, 3.0};
  std::vector<double> b = {-0.0, 0.0, 1.0, -0.0, 0.0, 4.0, 0.0, -0.0, 3.0};
  int n = static_cast<int>(a.size());
  std::vector<double> out(a.size()), ref(a.size());
  fast_eval_internal::RowMin(out.data(), a.data(), b.data(), n);
  fast_eval_internal::RowMinScalar(ref.data(), a.data(), b.data(), n);
  EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), a.size() * sizeof(double)));
}

// --- QO_N certified bound ----------------------------------------------

TEST(QonNeighborhoodEvaluator, AllPricesWithinCertifiedBound) {
  for (uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed);
    int n = 2 + static_cast<int>(rng.UniformInt(0, 18));
    QonInstance inst = RandomQonWorkload(n, &rng);
    QonCostEvaluator exact(inst);
    QonNeighborhoodEvaluator fast(inst);
    double eps = fast.EpsLog2();
    ASSERT_GT(eps, 0.0);

    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    LogDouble base = exact.Cost(seq);
    fast.Load(seq);
    EXPECT_NEAR(fast.BaseCostLog2(), base.Log2(), eps)
        << "seed=" << seed << " n=" << n;

    const double* adjacent = fast.PriceAdjacentAll();
    for (int i = 0; i + 1 < n; ++i) {
      LogDouble probe = exact.CostAfterSwap(i, i + 1);
      exact.CostAfterSwap(i, i + 1);  // restore
      EXPECT_NEAR(adjacent[i], probe.Log2(), eps)
          << "seed=" << seed << " n=" << n << " i=" << i;
      EXPECT_NEAR(fast.PriceSwap(i, i + 1), probe.Log2(), eps);
    }
    for (int trial = 0; trial < 8; ++trial) {
      int i = static_cast<int>(rng.UniformInt(0, n - 1));
      int j = static_cast<int>(rng.UniformInt(0, n - 1));
      if (i == j) continue;
      if (i > j) std::swap(i, j);
      JoinSequence swapped = seq;
      std::swap(swapped[static_cast<size_t>(i)],
                swapped[static_cast<size_t>(j)]);
      LogDouble want = exact.Cost(swapped);
      exact.Cost(seq);  // restore the diff base
      EXPECT_NEAR(fast.PriceSwap(i, j), want.Log2(), eps)
          << "seed=" << seed << " n=" << n << " i=" << i << " j=" << j;
    }
  }
}

// --- QO_H certified bound + exact feasibility ---------------------------

TEST(QohNeighborhoodEvaluator, PricesWithinBoundAndFeasibilityExact) {
  for (uint64_t seed = 0; seed < 80; ++seed) {
    Rng rng(seed);
    int n = 2 + static_cast<int>(rng.UniformInt(0, 10));
    QohInstance inst = RandomQohWorkload(n, &rng);
    QohCostEvaluator exact(inst);
    QohNeighborhoodEvaluator fast(inst);
    double eps = fast.EpsLog2();

    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    const QohPlan& base = exact.Evaluate(seq);
    fast.Load(seq);
    ASSERT_EQ(fast.BaseFeasible(), base.feasible) << "seed=" << seed;
    if (base.feasible) {
      EXPECT_NEAR(fast.BaseCostLog2(), base.cost.Log2(), eps);
    }
    for (int i = 0; i + 1 < n; ++i) {
      JoinSequence swapped = seq;
      std::swap(swapped[static_cast<size_t>(i)],
                swapped[static_cast<size_t>(i + 1)]);
      const QohPlan& probe = exact.Evaluate(swapped);
      bool want_feasible = probe.feasible;
      double want = probe.feasible ? probe.cost.Log2() : 0.0;
      exact.Evaluate(seq);  // restore
      bool feasible = false;
      double got = fast.PriceSwap(i, i + 1, &feasible);
      ASSERT_EQ(feasible, want_feasible)
          << "seed=" << seed << " n=" << n << " i=" << i;
      if (want_feasible) {
        EXPECT_NEAR(got, want, eps) << "seed=" << seed << " n=" << n;
      }
    }
    for (int trial = 0; trial < 6; ++trial) {
      int i = static_cast<int>(rng.UniformInt(0, n - 1));
      int j = static_cast<int>(rng.UniformInt(0, n - 1));
      if (i == j) continue;
      if (i > j) std::swap(i, j);
      JoinSequence swapped = seq;
      std::swap(swapped[static_cast<size_t>(i)],
                swapped[static_cast<size_t>(j)]);
      const QohPlan& probe = exact.Evaluate(swapped);
      bool want_feasible = probe.feasible;
      double want = probe.feasible ? probe.cost.Log2() : 0.0;
      exact.Evaluate(seq);
      bool feasible = false;
      double got = fast.PriceSwap(i, j, &feasible);
      ASSERT_EQ(feasible, want_feasible) << "seed=" << seed;
      if (want_feasible) EXPECT_NEAR(got, want, eps) << "seed=" << seed;
    }
  }
}

// --- counter attribution ------------------------------------------------

TEST(FastEvalCounters, FastProbesChargeTheFastEvalFamily) {
  obs::Counter& neighborhoods =
      obs::Registry::Get().GetCounter("qo.fast_eval.neighborhoods");
  obs::Counter& candidates =
      obs::Registry::Get().GetCounter("qo.fast_eval.candidates");

  Rng gen(5);
  const int n = 10;
  QonInstance inst = RandomQonWorkload(n, &gen);

  // The optimizers price with the exact evaluators only.
  OptimizerOptions options;
  options.restarts = 2;
  uint64_t n0 = neighborhoods.Value();
  uint64_t c0 = candidates.Value();
  Rng rng(1);
  IterativeImprovementOptimizer(inst, &rng, options);
  EXPECT_EQ(neighborhoods.Value(), n0) << "ii must not charge fast_eval";
  EXPECT_EQ(candidates.Value(), c0);

  // One Load is one neighbourhood; every priced candidate is one
  // candidate (the adjacent pass prices n-1 at once).
  QonNeighborhoodEvaluator fast(inst);
  fast.Load(IdentitySequence(n));
  fast.PriceAdjacentAll();
  fast.PriceSwap(0, n - 1);
  EXPECT_EQ(neighborhoods.Value(), n0 + 1);
  EXPECT_EQ(candidates.Value(), c0 + static_cast<uint64_t>(n - 1) + 1);

  QohInstance qoh = RandomQohWorkload(8, &gen);
  QohNeighborhoodEvaluator qoh_fast(qoh);
  qoh_fast.Load(IdentitySequence(8));
  bool feasible = false;
  qoh_fast.PriceSwap(1, 5, &feasible);
  EXPECT_EQ(neighborhoods.Value(), n0 + 2);
  EXPECT_EQ(candidates.Value(), c0 + static_cast<uint64_t>(n - 1) + 2);
}

}  // namespace
}  // namespace aqo
