#ifndef AQO_QO_FAST_EVAL_H_
#define AQO_QO_FAST_EVAL_H_

// Approximate neighbourhood pricing: a library that prices whole swap
// neighbourhoods of a loaded sequence at once. No optimizer uses it; every
// local-search optimizer prices candidates with the exact evaluators in
// qo/cost_eval.h, which measured faster end to end (docs/performance.md,
// "Neighbourhood pricing"). The library stays for its micro benches and
// per-layer metrics, and as the starting point for a pre-DP bound.
//
// The exact evaluators in qo/cost_eval.h are pinned to the naive code's
// left-to-right expression tree: LogDouble addition is log-sum-exp and is
// not associative, so the bit-identity contract forbids re-associating the
// cost fold, and the exact tier's incremental speedup has a mathematical
// ceiling (BENCH_COST_EVAL.json). The evaluators below deliberately give
// that constraint up. They keep every per-target quantity as flat
// structure-of-arrays of raw log2-domain doubles (access costs,
// masked-selectivity rows where a non-edge contributes an exactly
// representable +0.0, running min/sum prefix matrices), accumulate in the
// log domain with free re-association, and price a whole swap neighborhood
// of a loaded sequence in one batched pass: all n-1 adjacent
// transpositions cost O(1) each after an O(n^2) Load, and an arbitrary
// swap (i, j) costs O((j-i) * n). The inner loops are contiguous,
// branch-free, and AQO_RESTRICT-qualified; an explicit AVX2 path (see
// fast_eval.cc) covers the elementwise min/add kernels and is guarded
// behind a scalar fallback that produces bit-identical kernel outputs —
// only IEEE-exact operations (add of disjoint rows, elementwise min) are
// vectorized, while the log-sum-exp reduction stays scalar in both paths.
//
// Error contract (docs/performance.md, "Neighbourhood pricing"):
//
//   |fast_log2(candidate) - naive_log2(candidate)| <= EpsLog2()
//
// where naive_log2 is LogDouble::Log2() of the exact fold. In real
// arithmetic log-sum-exp *is* associative, so re-association contributes
// nothing and the error is pure rounding — O(n^2) floating-point
// operations on either side, each perturbing the running log2 value by a
// few ulps of its magnitude, which is bounded by the per-instance constant
// A = sum |log2 t_v| + sum |log2 masked selectivities| +
// max |log2 access cost| + 1. EpsLog2() = C * n^2 * DBL_EPSILON * A with
// C = 64 (QO_N) or 512 (QO_H). That constant is NOT proved: it is a
// cushion over the order-of-magnitude argument above, validated on 1000
// seeded instances by tests/fast_eval_test.cc and tests/property_test.cc.
// No optimizer result, bench table or served plan depends on it.
//
// The QO_H evaluator prices pipeline-swap neighborhoods the same way. Its
// feasibility verdict is *exact*, not approximate: memory floors are
// folded in join order with the same linear-domain doubles the exact DP
// uses, and reachability in the decomposition DP is cost-independent, so
// its feasible/infeasible answer is bit-identical to the naive DP's. Only
// the cost carries the eps bound (its DP prunes against the incumbent
// with an EpsLog2() slack so pruning cannot push the returned minimum
// outside that interval).
//
// Telemetry: qo.fast_eval.neighborhoods counts Load calls,
// qo.fast_eval.candidates counts priced candidates.
//
// Thread safety: same model as qo/cost_eval.h — one evaluator per
// optimizer run; the instance must outlive it.

#include <vector>

#include "qo/qoh.h"
#include "qo/qon.h"

namespace aqo {

namespace fast_eval_internal {

// "avx2" when the vector kernels below were compiled with the AVX2
// intrinsic path, "scalar" otherwise. Recorded by tools/bench_snapshot so
// committed speedup curves are comparable across machines.
const char* SimdPath();

// Elementwise kernels over contiguous double rows. The AVX2 and scalar
// builds are bit-identical: vector min/add on doubles is the lanewise IEEE
// operation. The *Scalar variants are always compiled (they are the
// fallback bodies) so tests can assert SIMD/scalar parity on AVX2 builds.
void RowMin(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
            const double* AQO_RESTRICT b, int n);
void RowAdd(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
            const double* AQO_RESTRICT b, int n);
void RowMinScalar(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
                  const double* AQO_RESTRICT b, int n);
void RowAddScalar(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
                  const double* AQO_RESTRICT b, int n);
// In-place fold: dst = min(dst, src).
void RowMinInPlace(double* AQO_RESTRICT dst, const double* AQO_RESTRICT src,
                   int n);
void RowMinInPlaceScalar(double* AQO_RESTRICT dst,
                         const double* AQO_RESTRICT src, int n);

// log2(2^a + 2^b) with -infinity as the additive identity — the raw-double
// twin of LogDouble::operator+ (same hi + log1p(exp2(lo - hi)) / ln2
// form, so the per-operation rounding profile matches the exact fold's).
double Lse2(double a, double b);

}  // namespace fast_eval_internal

// --- QO_N ---------------------------------------------------------------

class QonNeighborhoodEvaluator {
 public:
  explicit QonNeighborhoodEvaluator(const QonInstance& inst);

  int NumRelations() const { return n_; }

  // Bound on |fast log2 cost - exact log2 cost| for any candidate priced
  // by this evaluator: validated, not proved (see header comment).
  double EpsLog2() const { return eps_log2_; }

  // Lays out the swap-neighborhood state of `seq`: log2 prefix sizes,
  // running per-target min-access and selectivity-sum matrices, and
  // forward/backward log-sum-exp partials of the per-join terms. O(n^2),
  // row-vectorized. Must be called before the Price* methods; call again
  // whenever the base sequence changes.
  void Load(const JoinSequence& seq);
  bool loaded() const { return loaded_; }
  const JoinSequence& sequence() const { return seq_; }

  // Fast log2 cost of the loaded sequence itself.
  double BaseCostLog2() const;

  // Prices all n-1 adjacent transpositions (i, i+1) of the loaded
  // sequence in one batched pass: the returned array holds the fast log2
  // cost of each candidate at index i. One contiguous gather, one
  // branch-free batched add/min pass over all candidates, one scalar
  // log-sum-exp pass. Valid until the next Load. Requires n >= 2.
  const double* PriceAdjacentAll();

  // Fast log2 cost of the candidate obtained by swapping positions i < j
  // of the loaded sequence. O((j - i) * n): terms outside (i-1, j+1) reuse
  // the loaded partials (their real value is unchanged by the swap — the
  // re-association freedom the exact tier does not have).
  double PriceSwap(int i, int j);

 private:
  int n_ = 0;
  double eps_log2_ = 0.0;
  // Instance data as raw log2 doubles, structure-of-arrays.
  std::vector<double> lt_;     // lt_[v] = log2 t_v
  std::vector<double> lw_;     // lw_[t*n+k] = log2 AccessCost(k, t); +inf diag
  std::vector<double> lwt_;    // transpose: lwt_[k*n+t] = lw_[t*n+k]
  std::vector<double> mselt_;  // mselt_[u*n+t] = edge(t,u) ? log2 sel(u,t) : +0.0
  // Loaded neighborhood state.
  bool loaded_ = false;
  JoinSequence seq_;
  std::vector<double> lp_;    // lp_[p] = log2 N(first p relations), p in [0,n]
  std::vector<double> mp_;    // mp_[p*n+t] = min_{q<p} lw_[t*n+seq_[q]]
  std::vector<double> ps_;    // ps_[p*n+t] = sum_{q<p} msel_[t*n+seq_[q]]
  std::vector<double> h_;     // h_[p] = per-join log2 term, p in [1, n-1]
  std::vector<double> fwd_;   // fwd_[p] = lse(h_[1..p]); fwd_[0] = -inf
  std::vector<double> bwd_;   // bwd_[p] = lse(h_[p..n-1]); bwd_[n] = -inf
  // Adjacent-batch scratch (gathered per-candidate operands + outputs).
  std::vector<double> g_mpb_, g_mpa_, g_psb_, g_ltb_, g_lwab_;
  std::vector<double> b_h1_, b_h2_;
  std::vector<double> out_;
  // PriceSwap scratch row.
  std::vector<double> cur_min_;
};

// --- QO_H ---------------------------------------------------------------

class QohNeighborhoodEvaluator {
 public:
  // Same n >= 2 contract as QohCostEvaluator; the memory budget is
  // captured at construction.
  explicit QohNeighborhoodEvaluator(const QohInstance& inst);

  int NumRelations() const { return n_; }
  double EpsLog2() const { return eps_log2_; }

  // Loads the base sequence: log2 prefix sizes via the masked selectivity
  // prefix-sum matrix, per-join hash-build shapes, and the full
  // decomposition DP in raw log2 doubles. O(n^2) rows + the DP.
  void Load(const JoinSequence& seq);
  bool loaded() const { return loaded_; }

  // Base verdicts for the loaded sequence. BaseFeasible() is bit-identical
  // to the exact DP's feasibility; BaseCostLog2() carries the eps bound.
  bool BaseFeasible() const { return base_feasible_; }
  double BaseCostLog2() const { return base_cost_log2_; }

  // Fast price of the candidate = loaded sequence with positions i < j
  // swapped. `*feasible` receives the exact feasibility verdict (memory
  // floors and DP reachability are replicated with the exact tier's own
  // linear-domain arithmetic); the returned log2 cost is within EpsLog2()
  // of the exact optimal-decomposition cost when feasible.
  double PriceSwap(int i, int j, bool* feasible);

 private:
  // Shared DP driver over the candidate join-shape arrays, starting at
  // join `first_join` (earlier DP rows are read from `dp`/`reach`).
  void RunDp(int first_join, const double* jlp, const double* jopi,
             const double* jh1, const double* jslope, const double* jinner,
             const double* jhjmin_lin, const double* jextra_cap,
             const unsigned char* jinfeasible, double* dp,
             unsigned char* reach);
  bool PipelineCostFast(int first, int last, bool bounded, double bound,
                        const double* jlp, const double* jopi,
                        const double* jh1, const double* jinner,
                        const double* jhjmin_lin, const double* jextra_cap,
                        double* cost);

  int n_ = 0;
  int total_joins_ = 0;
  double memory_linear_ = 0.0;
  double eps_log2_ = 0.0;
  // Per-relation shape scalars (computed once through the same LogDouble
  // expressions the exact evaluator uses, then stored as raw log2/linear
  // doubles — bit-identical inputs to both tiers).
  std::vector<double> lt_;              // log2 t_v
  std::vector<double> rel_hjmin_lin_;   // linear hjmin
  std::vector<double> rel_extra_cap_;   // linear b - hjmin
  std::vector<double> rel_denom_log2_;  // log2 (b - hjmin) when cap > 0
  std::vector<unsigned char> rel_build_infeasible_;
  std::vector<double> mselt_;  // mselt_[k*n+t] = edge ? log2 sel(k,t) : +0.0
  // Loaded base state.
  bool loaded_ = false;
  bool base_feasible_ = false;
  double base_cost_log2_ = 0.0;
  JoinSequence seq_;
  std::vector<double> lp_;  // log2 prefix sizes, [0, n]
  std::vector<double> ps_;  // ps_[p*n+t] masked selectivity prefix sums
  // Base per-join shapes (1-based join index; join j's inner is seq_[j]).
  std::vector<double> jopi_, jh1_, jslope_, jinner_, jhjmin_lin_, jextra_cap_;
  std::vector<unsigned char> jinfeasible_;
  std::vector<double> dp_;
  std::vector<unsigned char> reach_;
  // Candidate scratch (copies of the base arrays with the changed span
  // overwritten, plus the candidate DP tail).
  std::vector<double> c_jlp_, c_jopi_, c_jh1_, c_jslope_, c_jinner_,
      c_jhjmin_lin_, c_jextra_cap_;
  std::vector<unsigned char> c_jinfeasible_;
  std::vector<double> c_dp_;
  std::vector<unsigned char> c_reach_;
  // Pipeline scratch.
  std::vector<int> sorted_;
  std::vector<double> extra_;
};

}  // namespace aqo

#endif  // AQO_QO_FAST_EVAL_H_
