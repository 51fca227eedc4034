// Bit-identity of the raw-log2 subset-DP kernel (qo/optimizers.cc: split
// min-access tables, certified log-sum-exp skip, shared subset-size fold)
// against the LogDouble DPs it replaced, kept in tests/dp_oracle.cc.
//
// For every run the (cost bits, sequence, evaluations, status,
// qon.dp.* counter deltas) tuple must equal the oracle's exactly: the
// serial DP, the parallel DP at 2 and 4 threads, and DpQonOptimizer with
// a 1-thread pool, over seeded random instances, tie-heavy instances,
// explicit access-cost overrides, cartesian-free search on sparse graphs
// and budget caps that cut the DP short. CoutOptimalJoinOrder is checked
// against its own pre-kernel copy the same way.

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "qo/analysis.h"
#include "qo/optimizers.h"
#include "qo/qon.h"
#include "tests/dp_oracle.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace aqo {
namespace {

struct DpCounters {
  uint64_t states = 0;
  uint64_t transitions = 0;
  uint64_t pruned = 0;
};

DpCounters ReadDpCounters() {
  obs::Registry& r = obs::Registry::Get();
  return {r.GetCounter("qon.dp.states").Value(),
          r.GetCounter("qon.dp.transitions").Value(),
          r.GetCounter("qon.dp.pruned_cartesian").Value()};
}

// One run plus the qon.dp.* counter deltas it flushed.
struct Outcome {
  OptimizerResult result;
  DpCounters counters;
};

template <typename Fn>
Outcome Observe(const Fn& run) {
  DpCounters before = ReadDpCounters();
  Outcome out;
  out.result = run();
  DpCounters after = ReadDpCounters();
  out.counters = {after.states - before.states,
                  after.transitions - before.transitions,
                  after.pruned - before.pruned};
  return out;
}

// Empty when the two outcomes agree bit for bit, else the first mismatch.
std::string Mismatch(const Outcome& want, const Outcome& got) {
  const OptimizerResult& a = want.result;
  const OptimizerResult& b = got.result;
  if (a.feasible != b.feasible) return "feasible";
  if (a.status != b.status) return "status";
  if (a.evaluations != b.evaluations) {
    return "evaluations " + std::to_string(a.evaluations) + " vs " +
           std::to_string(b.evaluations);
  }
  if (std::bit_cast<uint64_t>(a.cost.Log2()) !=
      std::bit_cast<uint64_t>(b.cost.Log2())) {
    return "cost bits";
  }
  if (a.sequence != b.sequence) return "sequence";
  if (want.counters.states != got.counters.states) return "qon.dp.states";
  if (want.counters.transitions != got.counters.transitions) {
    return "qon.dp.transitions";
  }
  if (want.counters.pruned != got.counters.pruned) {
    return "qon.dp.pruned_cartesian";
  }
  return "";
}

class DpKernelTest : public ::testing::Test {
 protected:
  // Every production DP path against the oracle, for one options value.
  void ExpectAllMatchOracle(const QonInstance& inst,
                            const OptimizerOptions& options,
                            const std::string& label) {
    Outcome want =
        Observe([&] { return oracle::DpQonOptimizerSerial(inst, options); });
    Outcome serial =
        Observe([&] { return DpQonOptimizerSerial(inst, options); });
    EXPECT_EQ(Mismatch(want, serial), "") << label << " serial";
    OptimizerOptions pooled = options;
    pooled.pool = &pool1_;
    Outcome one = Observe([&] { return DpQonOptimizer(inst, pooled); });
    EXPECT_EQ(Mismatch(want, one), "") << label << " 1 thread";
    // Budget-capped runs take the serial DP through the dispatcher; the
    // direct parallel call trips only at layer boundaries, so it is
    // compared against the oracle on uncapped runs only.
    for (ThreadPool* pool : {&pool2_, &pool4_}) {
      pooled.pool = pool;
      Outcome dispatched =
          Observe([&] { return DpQonOptimizer(inst, pooled); });
      EXPECT_EQ(Mismatch(want, dispatched), "")
          << label << " dispatch " << pool->num_threads() << " threads";
      if (options.budget.max_evaluations != 0) continue;
      Outcome parallel =
          Observe([&] { return DpQonOptimizerParallel(inst, pool, options); });
      EXPECT_EQ(Mismatch(want, parallel), "")
          << label << " parallel " << pool->num_threads() << " threads";
    }
  }

  ThreadPool pool1_{1};
  ThreadPool pool2_{2};
  ThreadPool pool4_{4};
};

// Random instance: G(n, p), sizes 2^[1, 40] on a coarse grid (so exact
// ties occur), selectivities on a coarse grid in (0, 1].
QonInstance RandomInstance(int n, double p, Rng* rng) {
  Graph g = Gnp(n, p, rng);
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(
        LogDouble::FromLog2(static_cast<double>(rng->UniformInt(4, 160)) / 4));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::FromLog2(-static_cast<double>(
                                  rng->UniformInt(0, 48)) / 4));
  }
  return inst;
}

// Overrides a share of the access costs with values drawn inside the
// legal range [t_j * s_kj, t_j].
void OverrideAccessCosts(QonInstance* inst, double share, Rng* rng) {
  int n = inst->NumRelations();
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      if (k == j || !rng->Bernoulli(share)) continue;
      double hi = inst->size(j).Log2();
      double lo = (inst->size(j) * inst->selectivity(k, j)).Log2();
      inst->SetAccessCost(k, j,
                          LogDouble::FromLog2(lo + (hi - lo) *
                                                       rng->UniformReal()));
    }
  }
}

TEST_F(DpKernelTest, SeededRandomInstancesMatchOracle) {
  Rng rng(0xD9C0);
  int runs = 0;
  for (int i = 0; i < 1040; ++i) {
    int n = 2 + i % 13;  // 2..14
    double p = rng.UniformReal(0.05, 1.0);
    QonInstance inst = RandomInstance(n, p, &rng);
    ExpectAllMatchOracle(inst, {}, "random #" + std::to_string(i));
    ++runs;
  }
  EXPECT_GE(runs, 1000);
}

TEST_F(DpKernelTest, TieHeavyInstancesMatchOracle) {
  Rng rng(0x71E5);
  for (int i = 0; i < 60; ++i) {
    int n = 2 + i % 11;  // 2..12
    // Equal sizes, and either s = 1 on every edge (every plan of one
    // length costs the same) or one shared selectivity.
    Graph g = i % 3 == 0 ? Gnp(n, 1.0, &rng) : Gnp(n, 0.5, &rng);
    LogDouble t = LogDouble::FromLog2(static_cast<double>(1 + i % 7));
    QonInstance inst(g, std::vector<LogDouble>(static_cast<size_t>(n), t));
    LogDouble s = i % 2 == 0 ? LogDouble::One() : LogDouble::FromLog2(-1.0);
    for (const auto& [u, v] : g.Edges()) inst.SetSelectivity(u, v, s);
    ExpectAllMatchOracle(inst, {}, "ties #" + std::to_string(i));
    OptimizerOptions connected;
    connected.forbid_cartesian = true;
    ExpectAllMatchOracle(inst, connected, "ties connected #" +
                                              std::to_string(i));
  }
}

TEST_F(DpKernelTest, AccessCostOverridesMatchOracle) {
  Rng rng(0xACCE);
  for (int i = 0; i < 120; ++i) {
    int n = 2 + i % 12;  // 2..13
    QonInstance inst = RandomInstance(n, rng.UniformReal(0.2, 1.0), &rng);
    OverrideAccessCosts(&inst, rng.UniformReal(0.2, 1.0), &rng);
    inst.Validate();
    ExpectAllMatchOracle(inst, {}, "override #" + std::to_string(i));
  }
}

TEST_F(DpKernelTest, CartesianFreeSparseGraphsMatchOracle) {
  Rng rng(0xCA27);
  OptimizerOptions options;
  options.forbid_cartesian = true;
  for (int i = 0; i < 150; ++i) {
    int n = 2 + i % 13;  // 2..14
    QonInstance inst = [&] {
      switch (i % 3) {
        case 0: {  // trees: connected, cartesian-free plans exist
          Graph g = RandomTree(n, &rng);
          QonInstance t(g, std::vector<LogDouble>(static_cast<size_t>(n),
                                                  LogDouble::FromLog2(8.0)));
          for (const auto& [u, v] : g.Edges()) {
            t.SetSelectivity(
                u, v, LogDouble::FromLog2(-static_cast<double>(
                          rng.UniformInt(0, 8))));
          }
          return t;
        }
        case 1:  // sparse, often disconnected: infeasible or pruned-heavy
          return RandomInstance(n, 1.5 / n, &rng);
        default:
          return RandomInstance(n, 0.25, &rng);
      }
    }();
    if (i % 4 == 0) OverrideAccessCosts(&inst, 0.5, &rng);
    ExpectAllMatchOracle(inst, options, "sparse #" + std::to_string(i));
  }
}

TEST_F(DpKernelTest, BudgetCapsCutShortLikeOracle) {
  Rng rng(0xB0D6);
  for (int i = 0; i < 60; ++i) {
    int n = 4 + i % 10;  // 4..13
    QonInstance inst = RandomInstance(n, rng.UniformReal(0.2, 0.9), &rng);
    uint64_t total = DpQonOptimizerSerial(inst).evaluations;
    for (uint64_t cap : {uint64_t{1}, uint64_t{7}, total / 3, total - 1,
                         total, total + 1}) {
      if (cap == 0) continue;
      OptimizerOptions options;
      options.budget.max_evaluations = cap;
      options.forbid_cartesian = i % 2 == 1;
      ExpectAllMatchOracle(inst, options,
                           "cap " + std::to_string(cap) + " #" +
                               std::to_string(i));
    }
  }
}

TEST_F(DpKernelTest, ParallelBudgetRunsAgreeAcrossThreadCounts) {
  // The direct parallel call trips at layer boundaries: a pure function of
  // the instance, so every thread count stops at the same point.
  Rng rng(0x9A7B);
  for (int i = 0; i < 20; ++i) {
    int n = 5 + i % 8;
    QonInstance inst = RandomInstance(n, 0.5, &rng);
    uint64_t total = DpQonOptimizerSerial(inst).evaluations;
    OptimizerOptions options;
    options.budget.max_evaluations = total / 2 + 1;
    Outcome two =
        Observe([&] { return DpQonOptimizerParallel(inst, &pool2_, options); });
    Outcome four =
        Observe([&] { return DpQonOptimizerParallel(inst, &pool4_, options); });
    EXPECT_EQ(Mismatch(two, four), "") << "#" << i;
    EXPECT_EQ(two.result.status, PlanStatus::kBudgetExhausted) << "#" << i;
  }
}

TEST_F(DpKernelTest, LargestInstancesMatchOracle) {
  // A few instances at the top of the range, where the split tables have
  // their most rows (n = 16: 2^8 rows each side).
  Rng rng(0x1A26);
  for (int n : {15, 16}) {
    QonInstance inst = RandomInstance(n, 0.4, &rng);
    ExpectAllMatchOracle(inst, {}, "n=" + std::to_string(n));
  }
}

TEST(SubsetSizesLog2Test, PoolFillMatchesSerialFill) {
  Rng rng(0x5123);
  ThreadPool pool(3);
  for (int n = 1; n <= 12; ++n) {
    QonInstance inst = RandomInstance(n, 0.5, &rng);
    std::vector<double> serial = SubsetSizesLog2(inst);
    std::vector<double> pooled = SubsetSizesLog2(inst, &pool);
    ASSERT_EQ(serial.size(), size_t{1} << n);
    for (size_t s = 0; s < serial.size(); ++s) {
      ASSERT_EQ(std::bit_cast<uint64_t>(serial[s]),
                std::bit_cast<uint64_t>(pooled[s]))
          << "n=" << n << " S=" << s;
    }
  }
}

TEST(CoutKernelTest, MatchesPreKernelCopy) {
  Rng rng(0xC017);
  for (int i = 0; i < 300; ++i) {
    int n = 2 + i % 13;  // 2..14
    QonInstance inst = RandomInstance(n, rng.UniformReal(0.05, 1.0), &rng);
    Outcome want = Observe([&] { return oracle::CoutOptimalJoinOrder(inst); });
    Outcome got = Observe([&] { return CoutOptimalJoinOrder(inst); });
    EXPECT_EQ(Mismatch(want, got), "") << "cout #" << i;
    if (i % 5 == 0) {
      Budget budget;
      budget.max_evaluations = want.result.evaluations / 2 + 1;
      Outcome capped_want = Observe(
          [&] { return oracle::CoutOptimalJoinOrder(inst, budget); });
      Outcome capped_got =
          Observe([&] { return CoutOptimalJoinOrder(inst, budget); });
      EXPECT_EQ(Mismatch(capped_want, capped_got), "") << "cout cap #" << i;
    }
  }
}

}  // namespace
}  // namespace aqo
