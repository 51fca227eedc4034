// Tests for the SAT substrate: CNF structures, generators, DPLL, MaxSAT.

#include <gtest/gtest.h>

#include "sat/cnf.h"
#include "sat/dpll.h"
#include "sat/gen.h"
#include "util/random.h"

namespace aqo {
namespace {

// Reference exhaustive satisfiability check.
bool SatisfiableBrute(const CnfFormula& f) {
  int n = f.num_vars();
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    Assignment a(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) a[static_cast<size_t>(v)] = (mask >> v) & 1;
    if (f.IsSatisfiedBy(a)) return true;
  }
  return false;
}

int MaxSatBrute(const CnfFormula& f) {
  int n = f.num_vars();
  int best = 0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    Assignment a(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) a[static_cast<size_t>(v)] = (mask >> v) & 1;
    best = std::max(best, f.CountSatisfied(a));
  }
  return best;
}

TEST(Cnf, EvalAndCounting) {
  CnfFormula f(3);
  f.AddClause3(1, 2, 3);
  f.AddClause3(-1, -2, -3);
  f.AddClause({-1, 2});
  Assignment a = {true, false, false};
  EXPECT_EQ(f.CountSatisfied(a), 2);
  EXPECT_FALSE(f.IsSatisfiedBy(a));
  Assignment b = {false, true, false};
  EXPECT_TRUE(f.IsSatisfiedBy(b));
  EXPECT_TRUE(f.IsThreeCnf());
}

TEST(Cnf, OccurrenceCounting) {
  CnfFormula f(3);
  f.AddClause3(1, -1, 2);  // var 1 twice in one clause counts once
  f.AddClause3(1, 2, 3);
  EXPECT_EQ(f.VariableOccurrences(), (std::vector<int>{2, 2, 1}));
  EXPECT_EQ(f.MaxVariableOccurrence(), 2);
}

TEST(Dpll, SimpleSatAndUnsat) {
  CnfFormula sat(2);
  sat.AddClause({1, 2});
  sat.AddClause({-1, 2});
  DpllResult r = SolveDpll(sat);
  ASSERT_TRUE(r.assignment.has_value());
  EXPECT_TRUE(sat.IsSatisfiedBy(*r.assignment));

  CnfFormula unsat(1);
  unsat.AddClause({1});
  unsat.AddClause({-1});
  EXPECT_FALSE(SolveDpll(unsat).assignment.has_value());
}

TEST(Dpll, MatchesBruteForceOnRandom) {
  Rng rng(31);
  for (int trial = 0; trial < 120; ++trial) {
    int n = static_cast<int>(rng.UniformInt(3, 12));
    int m = static_cast<int>(rng.UniformInt(1, 50));
    CnfFormula f = RandomThreeSat(n, m, &rng);
    DpllResult r = SolveDpll(f);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.assignment.has_value(), SatisfiableBrute(f))
        << "n=" << n << " m=" << m << " trial=" << trial;
  }
}

TEST(Dpll, PlantedInstancesAreSat) {
  Rng rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    Assignment hidden;
    CnfFormula f = PlantedSatisfiableThreeSat(20, 80, &rng, &hidden);
    EXPECT_TRUE(f.IsSatisfiedBy(hidden));
    EXPECT_TRUE(SolveDpll(f).assignment.has_value());
  }
}

TEST(Dpll, DecisionLimitAborts) {
  Rng rng(33);
  CnfFormula f = RandomThreeSat(60, 258, &rng);  // near threshold, hard-ish
  DpllResult r = SolveDpll(f, 1);
  // Either solved within one decision or reported incomplete.
  EXPECT_TRUE(r.complete || !r.assignment.has_value());
}

TEST(MaxSat, MatchesBruteForce) {
  Rng rng(34);
  for (int trial = 0; trial < 60; ++trial) {
    int n = static_cast<int>(rng.UniformInt(2, 10));
    int m = static_cast<int>(rng.UniformInt(1, 30));
    CnfFormula f = RandomThreeSat(std::max(n, 3), m, &rng);
    EXPECT_EQ(MaxSatisfiableClauses(f), MaxSatBrute(f));
  }
}

TEST(BoundOccurrences, ProducesThreeSat13) {
  Rng rng(37);
  CnfFormula f = RandomThreeSat(8, 120, &rng);  // heavy repetition
  EXPECT_GT(f.MaxVariableOccurrence(), 13);
  CnfFormula bounded = BoundOccurrences(f, 13);
  EXPECT_LE(bounded.MaxVariableOccurrence(), 13);
  EXPECT_TRUE(bounded.IsThreeCnf());
}

TEST(BoundOccurrences, PreservesSatisfiability) {
  Rng rng(38);
  for (int trial = 0; trial < 40; ++trial) {
    int n = static_cast<int>(rng.UniformInt(3, 8));
    int m = static_cast<int>(rng.UniformInt(5, 40));
    CnfFormula f = RandomThreeSat(n, m, &rng);
    CnfFormula bounded = BoundOccurrences(f, 3);
    EXPECT_EQ(SolveDpll(f).assignment.has_value(),
              SolveDpll(bounded).assignment.has_value())
        << "trial=" << trial;
  }
}

TEST(BoundOccurrences, NoSplitWhenAlreadyBounded) {
  Rng rng(39);
  CnfFormula f = RandomThreeSat(30, 20, &rng);
  if (f.MaxVariableOccurrence() <= 13) {
    CnfFormula bounded = BoundOccurrences(f, 13);
    EXPECT_EQ(bounded.NumClauses(), f.NumClauses());
    EXPECT_EQ(bounded.num_vars(), f.num_vars());
  }
}

TEST(HardFormulas, PigeonholeIsUnsatAndCostly) {
  for (int holes : {1, 2, 3}) {
    CnfFormula f = PigeonholeFormula(holes);
    DpllResult r = SolveDpll(f);
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.assignment.has_value()) << "PHP must be unsatisfiable";
  }
  // Exactly `holes` pigeons fit: removing one pigeon's clause set makes it
  // satisfiable — checked via MaxSAT: all but one at-least-one clause can
  // be met.
  CnfFormula f = PigeonholeFormula(3);
  EXPECT_EQ(MaxSatisfiableClauses(f), f.NumClauses() - 1);
}

TEST(HardFormulas, PigeonholeDecisionsGrow) {
  uint64_t previous = 0;
  for (int holes : {2, 3, 4}) {
    DpllResult r = SolveDpll(PigeonholeFormula(holes));
    EXPECT_FALSE(r.assignment.has_value());
    EXPECT_GE(r.decisions, previous);
    previous = r.decisions;
  }
  EXPECT_GT(previous, 10u);  // PHP(5,4) is already nontrivial
}

TEST(HardFormulas, XorChainsSatisfiableIndividually) {
  for (int k : {2, 3, 6, 10}) {
    for (bool parity : {false, true}) {
      CnfFormula f = XorChainFormula(k, parity);
      DpllResult r = SolveDpll(f);
      ASSERT_TRUE(r.assignment.has_value()) << "k=" << k;
      // Verify the parity of the satisfying assignment's chain inputs.
      int ones = 0;
      for (int v = 1; v <= k; ++v) ones += (*r.assignment)[static_cast<size_t>(v - 1)];
      EXPECT_EQ(ones % 2 == 1, parity);
    }
  }
}

TEST(HardFormulas, ContradictoryXorChainsUnsat) {
  // Same inputs constrained to both parities: unsatisfiable.
  CnfFormula even = XorChainFormula(6, false);
  CnfFormula both(even.num_vars() + 5);  // 5 more auxiliaries for the odd copy
  for (const Clause& c : even.clauses()) both.AddClause(c);
  // Re-encode the odd chain with fresh auxiliaries 12..16 over inputs 1..6.
  int aux = 11;
  auto emit = [&both](int a, int b, int out) {
    both.AddClause({-a, -b, -out});
    both.AddClause({a, b, -out});
    both.AddClause({a, -b, out});
    both.AddClause({-a, b, out});
  };
  emit(1, 2, aux + 1);
  for (int i = 2; i < 6; ++i) emit(aux + i - 1, i + 1, aux + i);
  both.AddClause({aux + 5});
  EXPECT_FALSE(SolveDpll(both).assignment.has_value());
}

}  // namespace
}  // namespace aqo
