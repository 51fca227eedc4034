// The QO_N subset DPs as they were before the raw-log2 kernel in
// qo/optimizers.cc replaced them, kept verbatim as the reference that
// tests/dp_kernel_test.cc compares the production DPs against: the
// mask-major serial DP (LogDouble subset sizes via SubsetSizeOf, an
// O(popcount) min-access fold per transition via CandidateCost, a full
// log-sum-exp per transition) and the C_out DP with its own subset-size
// fold. Both flush the same qon.dp.* counters as production, so counter
// deltas compare too. Test-only: nothing under src/ links it.

#include "tests/dp_oracle.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "obs/metrics.h"
#include "qo/analysis.h"
#include "util/cancellation.h"
#include "util/check.h"

namespace aqo {
namespace oracle {

namespace {

obs::Counter& CounterRef(const char* name) {
  return obs::Registry::Get().GetCounter(name);
}

constexpr int kNoParent = -1;

// N[mask] from N[mask minus its lowest bit]: multiply in the relation,
// then the selectivities toward it in ascending-bit order.
LogDouble SubsetSizeOf(const QonInstance& inst,
                       const std::vector<LogDouble>& subset_size,
                       size_t mask) {
  int j = std::countr_zero(mask);
  size_t rest = mask & (mask - 1);
  LogDouble v = subset_size[rest] * inst.size(j);
  for (size_t m = rest; m != 0; m &= m - 1) {
    int k = std::countr_zero(m);
    if (inst.graph().HasEdge(k, j)) v *= inst.selectivity(k, j);
  }
  return v;
}

bool MaskConnectsTo(const Graph& g, size_t mask, int j) {
  for (size_t m = mask; m != 0; m &= m - 1) {
    if (g.HasEdge(std::countr_zero(m), j)) return true;
  }
  return false;
}

// Cost of the plan "src, then j": dp[src] + N(src) * min access cost,
// the min taken over src's bits in ascending order.
LogDouble CandidateCost(const QonInstance& inst,
                        const std::vector<LogDouble>& subset_size,
                        const std::vector<LogDouble>& dp, size_t src, int j) {
  LogDouble min_w = inst.size(j);  // upper bound; refined below
  for (size_t m = src; m != 0; m &= m - 1) {
    min_w = MinOf(min_w, inst.AccessCost(std::countr_zero(m), j));
  }
  return dp[src] + subset_size[src] * min_w;
}

// Peels the recorded last relations into the optimal sequence and
// cross-checks the reconstructed cost.
OptimizerResult FinishDp(const QonInstance& inst,
                         const std::vector<LogDouble>& dp,
                         const std::vector<int8_t>& last,
                         const std::vector<uint8_t>& reachable, size_t full,
                         uint64_t evaluations) {
  OptimizerResult result;
  result.evaluations = evaluations;
  if (!reachable[full]) return result;
  result.feasible = true;
  result.cost = dp[full];
  JoinSequence seq;
  size_t mask = full;
  while (mask != 0) {
    int j = last[mask];
    AQO_CHECK(j != kNoParent);
    seq.push_back(j);
    mask &= ~(static_cast<size_t>(1) << j);
  }
  std::reverse(seq.begin(), seq.end());
  result.sequence = seq;
  AQO_CHECK(QonSequenceCost(inst, seq).ApproxEquals(result.cost, 1e-6));
  return result;
}

// Best-so-far plan for a DP cut short mid-table: the partial dp table has
// no full-set plan yet, so the anytime answer is the greedy plan (run
// unbudgeted — it is polynomial and already the DP's quality floor).
// Deterministic: a pure function of the instance. `dp_evaluations` keeps
// the total evaluation count honest about the DP work already spent.
OptimizerResult FinishDpCutShort(const QonInstance& inst,
                                 const OptimizerOptions& options,
                                 PlanStatus status, uint64_t dp_evaluations) {
  OptimizerOptions fallback = options;
  fallback.budget = {};
  fallback.cancel = nullptr;
  fallback.pool = nullptr;
  OptimizerResult result = GreedyQonOptimizer(inst, fallback);
  result.evaluations += dp_evaluations;
  result.status = status;
  return result;
}

void FlushDpCounters(uint64_t states, uint64_t transitions, uint64_t pruned) {
  static obs::Counter& dp_states = CounterRef("qon.dp.states");
  static obs::Counter& dp_transitions = CounterRef("qon.dp.transitions");
  static obs::Counter& dp_pruned = CounterRef("qon.dp.pruned_cartesian");
  // Counted in locals and flushed once: even relaxed atomics are too hot
  // for the innermost DP loop (measurable % on BM_DpOptimizer). Flushing
  // happens on the invoking thread so per-thread counter attribution (see
  // obs/metrics.h) charges the whole DP to its run record.
  dp_states.Add(states);
  dp_transitions.Add(transitions);
  dp_pruned.Add(pruned);
}

// Anytime fallback for a C_out DP cut short mid-table: greedy
// min-next-intermediate construction (the natural C_out greedy), a pure
// function of the instance. Starts from the smallest relation; all ties
// break toward the lowest relation id.
OptimizerResult CoutGreedyCutShort(const QonInstance& inst, PlanStatus status,
                                   uint64_t dp_evaluations) {
  int n = inst.NumRelations();
  OptimizerResult result;
  int first = 0;
  for (int j = 1; j < n; ++j) {
    if (inst.size(j) < inst.size(first)) first = j;
  }
  JoinSequence seq = {first};
  std::vector<bool> placed(static_cast<size_t>(n), false);
  placed[static_cast<size_t>(first)] = true;
  LogDouble intermediate = inst.size(first);
  while (static_cast<int>(seq.size()) < n) {
    int best_j = -1;
    LogDouble best_next;
    for (int j = 0; j < n; ++j) {
      if (placed[static_cast<size_t>(j)]) continue;
      LogDouble next = intermediate * inst.size(j);
      for (int k : seq) {
        if (inst.graph().HasEdge(k, j)) next *= inst.selectivity(k, j);
      }
      if (best_j < 0 || next < best_next) {
        best_j = j;
        best_next = next;
      }
    }
    seq.push_back(best_j);
    placed[static_cast<size_t>(best_j)] = true;
    intermediate = best_next;
  }
  result.feasible = true;
  result.sequence = seq;
  result.cost = CoutSequenceCost(inst, seq);
  result.evaluations = dp_evaluations + static_cast<uint64_t>(n) - 1;
  result.status = status;
  return result;
}

}  // namespace

OptimizerResult DpQonOptimizerSerial(const QonInstance& inst,
                                     const OptimizerOptions& options) {
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  AQO_CHECK(n <= 24) << "subset DP is 2^n — instance too large";
  size_t full = (static_cast<size_t>(1) << n) - 1;

  // N[mask]: intermediate size of the relation set `mask`.
  std::vector<LogDouble> subset_size(full + 1, LogDouble::One());
  for (size_t mask = 1; mask <= full; ++mask) {
    subset_size[mask] = SubsetSizeOf(inst, subset_size, mask);
  }

  std::vector<LogDouble> dp(full + 1);
  std::vector<int8_t> last(full + 1, kNoParent);  // last relation joined
  std::vector<uint8_t> reachable(full + 1, 0);
  for (int i = 0; i < n; ++i) {
    size_t mask = static_cast<size_t>(1) << i;
    reachable[mask] = 1;
    dp[mask] = LogDouble::Zero();
    last[mask] = static_cast<int8_t>(i);
  }

  RunGuard guard(options.budget, options.cancel);
  uint64_t local_states = 0, local_pruned = 0;
  uint64_t evaluations = 0;
  for (size_t mask = 1; mask <= full; ++mask) {
    if (guard.ShouldStop(evaluations)) {
      FlushDpCounters(local_states, evaluations, local_pruned);
      return FinishDpCutShort(inst, options, guard.status(), evaluations);
    }
    if (!reachable[mask]) continue;
    for (int j = 0; j < n; ++j) {
      size_t bit = static_cast<size_t>(1) << j;
      if (mask & bit) continue;
      if (options.forbid_cartesian &&
          !MaskConnectsTo(inst.graph(), mask, j)) {
        ++local_pruned;
        continue;
      }
      LogDouble candidate = CandidateCost(inst, subset_size, dp, mask, j);
      ++evaluations;
      size_t next = mask | bit;
      bool fresh = !reachable[next];
      local_states += fresh;
      // On exact cost ties the lowest last-relation id wins, making the
      // reconstructed sequence independent of subset enumeration order
      // (the parallel DP visits transitions destination-major).
      if (fresh || candidate < dp[next] ||
          (candidate == dp[next] && j < last[next])) {
        reachable[next] = 1;
        dp[next] = candidate;
        last[next] = static_cast<int8_t>(j);
      }
    }
  }

  FlushDpCounters(local_states, evaluations, local_pruned);
  return FinishDp(inst, dp, last, reachable, full, evaluations);
}

OptimizerResult CoutOptimalJoinOrder(const QonInstance& inst,
                                     const Budget& budget,
                                     CancelToken* cancel) {
  int n = inst.NumRelations();
  AQO_CHECK(n >= 2);
  AQO_CHECK(n <= 24) << "subset DP is 2^n";
  RunGuard guard(budget, cancel);
  size_t full = (size_t{1} << n) - 1;

  std::vector<LogDouble> subset_size(full + 1, LogDouble::One());
  for (size_t mask = 1; mask <= full; ++mask) {
    int j = std::countr_zero(mask);
    size_t rest = mask & (mask - 1);
    LogDouble v = subset_size[rest] * inst.size(j);
    for (size_t m = rest; m != 0; m &= m - 1) {
      int k = std::countr_zero(m);
      if (inst.graph().HasEdge(k, j)) v *= inst.selectivity(k, j);
    }
    subset_size[mask] = v;
  }

  // C_out extension cost is N(S union {j}) = subset_size of the new set:
  // dp[S] = min_j dp[S \ {j}] + N(S) for |S| >= 2.
  std::vector<LogDouble> dp(full + 1);
  std::vector<int8_t> last(full + 1, -1);
  OptimizerResult result;
  for (size_t mask = 1; mask <= full; ++mask) {
    if (guard.ShouldStop(result.evaluations)) {
      return CoutGreedyCutShort(inst, guard.status(), result.evaluations);
    }
    int bits = std::popcount(mask);
    if (bits == 1) {
      dp[mask] = LogDouble::Zero();
      last[mask] = static_cast<int8_t>(std::countr_zero(mask));
      continue;
    }
    bool first = true;
    for (size_t m = mask; m != 0; m &= m - 1) {
      int j = std::countr_zero(m);
      LogDouble cand = dp[mask & ~(size_t{1} << j)];
      ++result.evaluations;
      if (first || cand < dp[mask]) {
        dp[mask] = cand;
        last[mask] = static_cast<int8_t>(j);
        first = false;
      }
    }
    dp[mask] += subset_size[mask];
  }

  result.feasible = true;
  result.cost = dp[full];
  JoinSequence seq;
  size_t mask = full;
  while (mask != 0) {
    int j = last[mask];
    seq.push_back(j);
    mask &= ~(size_t{1} << j);
  }
  std::reverse(seq.begin(), seq.end());
  result.sequence = seq;
  AQO_CHECK(CoutSequenceCost(inst, seq).ApproxEquals(result.cost, 1e-6));
  return result;
}

}  // namespace oracle
}  // namespace aqo
