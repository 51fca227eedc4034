// Incumbent-bounded pricing (QonCostEvaluator::CostBelow) against the
// unbounded fold. CostBelow(seq, bound, &cost) must say exactly whether
// C(seq) < bound and, when it does, hand back C(seq) bit for bit; the
// evaluator state a bounded fold leaves behind (valid only below the
// position where the fold ended) must never leak into a later Cost*
// call; and the optimizers that price against their incumbent — QO_N
// `ii` and `random` — must return the (cost, sequence, evaluations,
// status) and counter totals of the unbounded naive path. Every cost
// comparison is on raw bits. See docs/performance.md, "Incumbent-bounded
// pricing".

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "qo/cost_eval.h"
#include "qo/optimizers.h"
#include "qo/qon.h"
#include "qo/workloads.h"
#include "reductions/clique_to_qon.h"
#include "util/random.h"

namespace aqo {
namespace {

uint64_t Bits(LogDouble x) { return std::bit_cast<uint64_t>(x.Log2()); }

LogDouble Above(LogDouble x) {
  return LogDouble::FromLog2(
      std::nextafter(x.Log2(), std::numeric_limits<double>::infinity()));
}

LogDouble Below(LogDouble x) {
  return LogDouble::FromLog2(
      std::nextafter(x.Log2(), -std::numeric_limits<double>::infinity()));
}

// E1 (Theorem 9) instances as bench/qon_gap.cc builds them: c = 2/3,
// d = 1/3; YES plants a clique of c*n, NO is complete (c-d)n-partite.
constexpr double kC = 2.0 / 3.0;
constexpr double kD = 1.0 / 3.0;

QonInstance E1Instance(int n, double log2_alpha, bool yes, Rng* rng) {
  QonGapParams params{.c = kC, .d = kD, .log2_alpha = log2_alpha};
  Graph g = yes ? CliqueClassGraph(n, 13, 1.0, static_cast<int>(kC * n), rng)
                : CompleteMultipartite(n, static_cast<int>((kC - kD) * n));
  return ReduceCliqueToQon(g, params).instance;
}

// The running costs H_1, H_1 + H_2, ... folded as QonSequenceCost folds
// them: the values the evaluator's fold compares against the bound.
std::vector<LogDouble> PartialCosts(const QonInstance& inst,
                                    const JoinSequence& seq) {
  std::vector<LogDouble> partial;
  LogDouble total = LogDouble::Zero();
  for (LogDouble h : QonJoinCosts(inst, seq)) {
    total += h;
    partial.push_back(total);
  }
  return partial;
}

// Every bound class: the exact cost (a tie), one ulp either side of it,
// each running cost and one ulp either side, the largest value (2^max:
// LogDouble has no +inf, FromLog2 rejects it), zero, and the smallest
// positive values (2^lowest, and the linear denormal minimum).
std::vector<LogDouble> BoundsFor(const QonInstance& inst,
                                 const JoinSequence& seq) {
  LogDouble exact = QonSequenceCost(inst, seq);
  std::vector<LogDouble> bounds = {
      exact,
      Above(exact),
      LogDouble::FromLog2(std::numeric_limits<double>::max()),
      LogDouble::Zero(),
      LogDouble::FromLog2(std::numeric_limits<double>::lowest()),
      LogDouble::FromLinear(std::numeric_limits<double>::denorm_min())};
  if (!exact.IsZero()) bounds.push_back(Below(exact));
  for (LogDouble partial : PartialCosts(inst, seq)) {
    bounds.push_back(partial);
    if (partial.IsZero()) continue;
    bounds.push_back(Above(partial));
    bounds.push_back(Below(partial));
  }
  return bounds;
}

// One CostBelow call checked against the naive cost: the verdict is
// exactly C(seq) < bound, the cost is bit-identical when true and
// untouched when false, and the evaluator (whatever state the call left)
// still prices `seq` exactly afterwards.
void ExpectCostBelow(QonCostEvaluator* eval, const QonInstance& inst,
                     const JoinSequence& seq, LogDouble bound,
                     const std::string& what) {
  LogDouble exact = QonSequenceCost(inst, seq);
  const LogDouble sentinel = LogDouble::FromLog2(-12345.0);
  LogDouble got = sentinel;
  bool below = eval->CostBelow(seq, bound, &got);
  ASSERT_EQ(below, exact < bound)
      << what << ": cost 2^" << exact.Log2() << " bound 2^" << bound.Log2();
  ASSERT_EQ(Bits(got), below ? Bits(exact) : Bits(sentinel)) << what;
}

TEST(CostBelow, VerdictAndBitsOnRandomWorkloads) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(5000 + seed);
    int n = 2 + static_cast<int>(seed % 59);  // n in [2, 60]
    QonInstance inst = RandomQonWorkload(n, &rng);
    QonCostEvaluator eval(inst);
    for (int draw = 0; draw < 3; ++draw) {
      JoinSequence seq = IdentitySequence(n);
      rng.Shuffle(&seq);
      for (LogDouble bound : BoundsFor(inst, seq)) {
        ExpectCostBelow(&eval, inst, seq, bound,
                        "seed=" + std::to_string(seed));
        // A fresh evaluator (nothing cached) gives the same answer.
        QonCostEvaluator fresh(inst);
        ExpectCostBelow(&fresh, inst, seq, bound,
                        "fresh seed=" + std::to_string(seed));
        ASSERT_EQ(Bits(eval.Cost(seq)), Bits(QonSequenceCost(inst, seq)));
      }
    }
  }
}

TEST(CostBelow, VerdictAndBitsOnE1Instances) {
  for (int n : {30, 60, 96}) {
    for (double log2_alpha : {2.0, 8.0}) {
      for (bool yes : {true, false}) {
        Rng rng(static_cast<uint64_t>(n) * 31 + (yes ? 1 : 0));
        QonInstance inst = E1Instance(n, log2_alpha, yes, &rng);
        QonCostEvaluator eval(inst);
        std::string what = std::string(yes ? "YES" : "NO") +
                           " n=" + std::to_string(n) +
                           " lg a=" + std::to_string(log2_alpha);
        for (int draw = 0; draw < 2; ++draw) {
          JoinSequence seq = IdentitySequence(n);
          rng.Shuffle(&seq);
          for (LogDouble bound : BoundsFor(inst, seq)) {
            ExpectCostBelow(&eval, inst, seq, bound, what);
          }
          // Swap neighbours priced against their own base cost, the way
          // ii prices them against its incumbent.
          LogDouble base = QonSequenceCost(inst, seq);
          for (int k = 0; k < 40; ++k) {
            JoinSequence next = seq;
            std::swap(next[static_cast<size_t>(rng.UniformInt(0, n - 1))],
                      next[static_cast<size_t>(rng.UniformInt(0, n - 1))]);
            ExpectCostBelow(&eval, inst, next, base, what + " swap");
          }
        }
      }
    }
  }
}

// A bounded fold that ends at position p leaves run_cost_/prefix_ stale
// from p on. Here the stale tail belongs to a sequence that differs from
// the bounded one at position 0, so any Cost* call that resumed past p
// would fold stale values in.
TEST(CostBelow, EarlyEndNeverLeaksIntoLaterCalls) {
  Rng rng(77);
  for (int n : {6, 20, 45}) {
    QonInstance inst = RandomQonWorkload(n, &rng);
    JoinSequence old_seq = IdentitySequence(n);
    rng.Shuffle(&old_seq);
    JoinSequence seq = old_seq;
    std::swap(seq[0], seq[static_cast<size_t>(n) - 1]);
    const LogDouble tiny = LogDouble::FromLog2(-1000.0);
    auto primed = [&] {
      auto eval = std::make_unique<QonCostEvaluator>(inst);
      eval->Cost(old_seq);
      LogDouble unused;
      EXPECT_FALSE(eval->CostBelow(seq, tiny, &unused));  // ends at p = 1
      return eval;
    };
    for (int i = 1; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        JoinSequence next = seq;
        std::swap(next[static_cast<size_t>(i)], next[static_cast<size_t>(j)]);
        uint64_t want = Bits(QonSequenceCost(inst, next));
        ASSERT_EQ(Bits(primed()->Cost(next)), want) << "Cost " << i << j;
        ASSERT_EQ(Bits(primed()->CostAfterSwap(i, j)), want)
            << "CostAfterSwap " << i << j;
        ASSERT_EQ(Bits(primed()->CostWithPrefix(next, i)), want)
            << "CostWithPrefix " << i << j;
        LogDouble got;
        ASSERT_TRUE(primed()->CostBelow(next, Above(QonSequenceCost(inst, next)),
                                        &got));
        ASSERT_EQ(Bits(got), want) << "CostBelow " << i << j;
      }
    }
  }
}

// Random interleavings of every entry point on one evaluator, each result
// checked against a fresh evaluator and the naive cost.
TEST(CostBelow, InterleavedEntryPointsMatchAFreshEvaluator) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(9000 + seed);
    int n = 2 + static_cast<int>(seed % 30);
    QonInstance inst = RandomQonWorkload(n, &rng);
    QonCostEvaluator eval(inst);
    JoinSequence seq = IdentitySequence(n);
    rng.Shuffle(&seq);
    ASSERT_EQ(Bits(eval.Cost(seq)), Bits(QonSequenceCost(inst, seq)));
    for (int step = 0; step < 300; ++step) {
      int i = static_cast<int>(rng.UniformInt(0, n - 1));
      int j = static_cast<int>(rng.UniformInt(0, n - 1));
      std::string what = "seed=" + std::to_string(seed) +
                         " step=" + std::to_string(step);
      int op = static_cast<int>(rng.UniformInt(0, 3));
      if (op == 2) {
        // CostAfterSwap acts on the last sequence handed to the evaluator.
        std::swap(seq[static_cast<size_t>(i)], seq[static_cast<size_t>(j)]);
        ASSERT_EQ(Bits(eval.CostAfterSwap(i, j)),
                  Bits(QonSequenceCost(inst, seq)))
            << what;
        continue;
      }
      JoinSequence next = seq;
      std::swap(next[static_cast<size_t>(i)], next[static_cast<size_t>(j)]);
      QonCostEvaluator fresh(inst);
      LogDouble want = fresh.Cost(next);
      ASSERT_EQ(Bits(want), Bits(QonSequenceCost(inst, next))) << what;
      if (op == 0) {
        ASSERT_EQ(Bits(eval.Cost(next)), Bits(want)) << what;
      } else if (op == 1) {
        ASSERT_EQ(Bits(eval.CostWithPrefix(next, std::min(i, j))), Bits(want))
            << what;
      } else {
        // Bounds drawn around the candidate's running costs, so folds end
        // early at every depth.
        std::vector<LogDouble> bounds = BoundsFor(inst, next);
        LogDouble bound = bounds[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(bounds.size()) - 1))];
        LogDouble got = LogDouble::Zero();
        bool below = eval.CostBelow(next, bound, &got);
        ASSERT_EQ(below, want < bound) << what;
        if (below) ASSERT_EQ(Bits(got), Bits(want)) << what;
      }
      seq = next;
    }
  }
}

// --- Optimizers: bounded pricing changes no result and no counter -------

// Every counter an ii/random run can touch, read as totals.
std::map<std::string, uint64_t> Counters() {
  std::map<std::string, uint64_t> out;
  for (const char* name :
       {"qon.ii.restarts", "qon.ii.improvements", "qon.ii.local_optima",
        "qon.random.samples", "qon.random.rejected"}) {
    out[name] = obs::Registry::Get().GetCounter(name).Value();
  }
  return out;
}

struct Outcome {
  OptimizerResult result;
  std::map<std::string, uint64_t> deltas;
};

Outcome RunCounted(const char* name, const QonInstance& inst,
                   const OptimizerOptions& options, uint64_t seed) {
  Rng rng(seed);
  std::map<std::string, uint64_t> before = Counters();
  Outcome out;
  out.result = std::string(name) == "ii"
                   ? IterativeImprovementOptimizer(inst, &rng, options)
                   : RandomSamplingOptimizer(inst, &rng, options);
  for (const auto& [counter, value] : Counters()) {
    out.deltas[counter] = value - before[counter];
  }
  return out;
}

// The same run on the bounded path and under ScopedNaiveCostEvaluation
// (full naive cost, compared afterwards): equal in every field.
void ExpectSameAsNaive(const char* name, const QonInstance& inst,
                       const OptimizerOptions& options, uint64_t seed,
                       const std::string& what) {
  Outcome bounded = RunCounted(name, inst, options, seed);
  Outcome naive;
  {
    ScopedNaiveCostEvaluation naive_scope;
    naive = RunCounted(name, inst, options, seed);
  }
  ASSERT_EQ(bounded.result.feasible, naive.result.feasible) << what;
  EXPECT_EQ(Bits(bounded.result.cost), Bits(naive.result.cost)) << what;
  EXPECT_EQ(bounded.result.sequence, naive.result.sequence) << what;
  EXPECT_EQ(bounded.result.evaluations, naive.result.evaluations) << what;
  EXPECT_EQ(bounded.result.status, naive.result.status) << what;
  EXPECT_EQ(bounded.deltas, naive.deltas) << what;
}

TEST(BoundedLocalSearch, IiAndRandomMatchTheNaivePathUnderEveryCap) {
  Rng gen(4242);
  std::vector<std::pair<std::string, QonInstance>> instances;
  for (int n : {7, 12, 16}) {
    instances.emplace_back("random n=" + std::to_string(n),
                           RandomQonWorkload(n, &gen));
  }
  instances.emplace_back("E1 NO n=30", E1Instance(30, 2.0, false, &gen));
  instances.emplace_back("E1 YES n=30", E1Instance(30, 8.0, true, &gen));
  for (const auto& [label, inst] : instances) {
    for (const char* name : {"ii", "random"}) {
      for (bool forbid : {false, true}) {
        OptimizerOptions options;
        options.restarts = 2;
        options.samples = 300;
        options.forbid_cartesian = forbid;
        uint64_t seed = 17 + static_cast<uint64_t>(inst.NumRelations());
        std::string what =
            label + " " + name + " forbid=" + std::to_string(forbid);
        ExpectSameAsNaive(name, inst, options, seed, what);
        uint64_t total =
            RunCounted(name, inst, options, seed).result.evaluations;
        ASSERT_GE(total, 3u) << what;
        for (uint64_t cap : {uint64_t{1}, uint64_t{7}, total / 3, total - 1,
                             total, total + 1}) {
          options.budget.max_evaluations = cap;
          ExpectSameAsNaive(name, inst, options, seed,
                            what + " cap=" + std::to_string(cap));
        }
      }
    }
  }
}

}  // namespace
}  // namespace aqo
