#include "qo/fast_eval.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/log_double.h"

#if defined(__AVX2__) && !defined(AQO_FAST_EVAL_FORCE_SCALAR)
#include <immintrin.h>
#define AQO_FAST_EVAL_AVX2 1
#endif

namespace aqo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
// Same constant LogDouble::operator+ divides by, so Lse2's rounding
// profile matches the exact fold's operation for operation.
constexpr double kLn2 = 0.6931471805599453;

obs::Counter& NeighborhoodsCounter() {
  static obs::Counter& c =
      obs::Registry::Get().GetCounter("qo.fast_eval.neighborhoods");
  return c;
}

obs::Counter& CandidatesCounter() {
  static obs::Counter& c =
      obs::Registry::Get().GetCounter("qo.fast_eval.candidates");
  return c;
}

}  // namespace

namespace fast_eval_internal {

const char* SimdPath() {
#ifdef AQO_FAST_EVAL_AVX2
  return "avx2";
#else
  return "scalar";
#endif
}

// The scalar bodies are the reference semantics: lanewise IEEE add and
// `a < b ? a : b` min — exactly what VADDPD/VMINPD compute per lane, so
// the AVX2 variants below are bit-identical, not merely close.

void RowAddScalar(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
                  const double* AQO_RESTRICT b, int n) {
  for (int i = 0; i < n; ++i) dst[i] = a[i] + b[i];
}

void RowMinScalar(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
                  const double* AQO_RESTRICT b, int n) {
  for (int i = 0; i < n; ++i) dst[i] = a[i] < b[i] ? a[i] : b[i];
}

void RowMinInPlaceScalar(double* AQO_RESTRICT dst,
                         const double* AQO_RESTRICT src, int n) {
  for (int i = 0; i < n; ++i) dst[i] = src[i] < dst[i] ? src[i] : dst[i];
}

#ifdef AQO_FAST_EVAL_AVX2

void RowAdd(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
            const double* AQO_RESTRICT b, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

void RowMin(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
            const double* AQO_RESTRICT b, int n) {
  int i = 0;
  // VMINPD(x, y) returns y (the second operand) when x == y — including
  // ±0.0 ties — and our operands are never NaN, so min_pd(a, b) matches
  // the scalar `a < b ? a : b` bit for bit.
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_min_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] < b[i] ? a[i] : b[i];
}

void RowMinInPlace(double* AQO_RESTRICT dst, const double* AQO_RESTRICT src,
                   int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_min_pd(_mm256_loadu_pd(src + i),
                                            _mm256_loadu_pd(dst + i)));
  }
  for (; i < n; ++i) dst[i] = src[i] < dst[i] ? src[i] : dst[i];
}

#else  // !AQO_FAST_EVAL_AVX2

void RowAdd(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
            const double* AQO_RESTRICT b, int n) {
  RowAddScalar(dst, a, b, n);
}

void RowMin(double* AQO_RESTRICT dst, const double* AQO_RESTRICT a,
            const double* AQO_RESTRICT b, int n) {
  RowMinScalar(dst, a, b, n);
}

void RowMinInPlace(double* AQO_RESTRICT dst, const double* AQO_RESTRICT src,
                   int n) {
  RowMinInPlaceScalar(dst, src, n);
}

#endif  // AQO_FAST_EVAL_AVX2

double Lse2(double a, double b) {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  double hi = a, lo = b;
  if (hi < lo) std::swap(hi, lo);
  return hi + std::log1p(std::exp2(lo - hi)) / kLn2;
}

}  // namespace fast_eval_internal

namespace {

using fast_eval_internal::Lse2;
using fast_eval_internal::RowAdd;
using fast_eval_internal::RowMin;
using fast_eval_internal::RowMinInPlace;

// The fused per-candidate arithmetic of PriceAdjacentAll: pure adds and
// mins over contiguous gathered operands, no branches, no transcendental
// calls — the part worth vectorizing. The log-sum-exp reduction stays
// scalar (see PriceAdjacentAll).
void BatchAdjacentScalar(double* AQO_RESTRICT h1, double* AQO_RESTRICT h2,
                         const double* AQO_RESTRICT lp,
                         const double* AQO_RESTRICT mpb,
                         const double* AQO_RESTRICT mpa,
                         const double* AQO_RESTRICT psb,
                         const double* AQO_RESTRICT ltb,
                         const double* AQO_RESTRICT lwab, int m) {
  for (int i = 0; i < m; ++i) {
    h1[i] = lp[i] + mpb[i];
    double lp1 = lp[i] + ltb[i] + psb[i];
    double mn = mpa[i] < lwab[i] ? mpa[i] : lwab[i];
    h2[i] = lp1 + mn;
  }
}

#ifdef AQO_FAST_EVAL_AVX2
void BatchAdjacent(double* AQO_RESTRICT h1, double* AQO_RESTRICT h2,
                   const double* AQO_RESTRICT lp,
                   const double* AQO_RESTRICT mpb,
                   const double* AQO_RESTRICT mpa,
                   const double* AQO_RESTRICT psb,
                   const double* AQO_RESTRICT ltb,
                   const double* AQO_RESTRICT lwab, int m) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    __m256d vlp = _mm256_loadu_pd(lp + i);
    _mm256_storeu_pd(h1 + i, _mm256_add_pd(vlp, _mm256_loadu_pd(mpb + i)));
    __m256d lp1 = _mm256_add_pd(_mm256_add_pd(vlp, _mm256_loadu_pd(ltb + i)),
                                _mm256_loadu_pd(psb + i));
    __m256d mn = _mm256_min_pd(_mm256_loadu_pd(mpa + i),
                               _mm256_loadu_pd(lwab + i));
    _mm256_storeu_pd(h2 + i, _mm256_add_pd(lp1, mn));
  }
  if (i < m) {
    BatchAdjacentScalar(h1 + i, h2 + i, lp + i, mpb + i, mpa + i, psb + i,
                        ltb + i, lwab + i, m - i);
  }
}
#else
void BatchAdjacent(double* AQO_RESTRICT h1, double* AQO_RESTRICT h2,
                   const double* AQO_RESTRICT lp,
                   const double* AQO_RESTRICT mpb,
                   const double* AQO_RESTRICT mpa,
                   const double* AQO_RESTRICT psb,
                   const double* AQO_RESTRICT ltb,
                   const double* AQO_RESTRICT lwab, int m) {
  BatchAdjacentScalar(h1, h2, lp, mpb, mpa, psb, ltb, lwab, m);
}
#endif

}  // namespace

// --- QO_N ---------------------------------------------------------------

QonNeighborhoodEvaluator::QonNeighborhoodEvaluator(const QonInstance& inst)
    : n_(inst.NumRelations()) {
  size_t n = static_cast<size_t>(n_);
  lt_.resize(n);
  lw_.resize(n * n);
  lwt_.resize(n * n);
  mselt_.resize(n * n);
  double max_lt = 0.0, max_ms = 0.0, max_lw = 0.0;
  for (int t = 0; t < n_; ++t) {
    size_t st = static_cast<size_t>(t);
    lt_[st] = inst.size(t).Log2();
    max_lt = std::max(max_lt, std::fabs(lt_[st]));
    double* AQO_RESTRICT wrow = lw_.data() + st * n;
    for (int k = 0; k < n_; ++k) {
      size_t sk = static_cast<size_t>(k);
      wrow[sk] = k == t ? kInf : inst.AccessCost(k, t).Log2();
      if (k != t) max_lw = std::max(max_lw, std::fabs(wrow[sk]));
      // mselt_ row u holds, for every target t, relation u's contribution
      // to the prefix-size fold when u joins the prefix: log2 sel(u, t)
      // when the join predicate exists, an exact +0.0 otherwise. Adding
      // the row is then branch-free; the no-edge lanes are additive
      // no-ops (-0.0 never occurs: log2 of a finite positive value is
      // never -0.0-producing here, and cancellation yields +0.0).
      double ms = inst.graph().HasEdge(t, k) ? inst.selectivity(k, t).Log2()
                                             : 0.0;
      mselt_[sk * n + st] = ms;
      max_ms = std::max(max_ms, std::fabs(ms));
    }
  }
  for (int t = 0; t < n_; ++t) {
    for (int k = 0; k < n_; ++k) {
      lwt_[static_cast<size_t>(k) * n + static_cast<size_t>(t)] =
          lw_[static_cast<size_t>(t) * n + static_cast<size_t>(k)];
    }
  }
  // Error bound: the fast and naive folds each perform O(n^2)
  // floating-point operations on log2-domain values whose magnitude is
  // bounded by A (prefix exponents accumulate at most n sizes and n^2
  // masked selectivities; per-join terms add one access cost). Every
  // operation perturbs the running value by at most a few ulps of A, the
  // log-sum-exp steps are Lipschitz-1 in each operand, and re-association
  // is exact in real arithmetic — so the two results differ by at most
  // C * n^2 * u * A for a small C. 64 is a cushion, not a proved
  // constant; tests/property_test.cc validates it across 1000 seeds.
  double nn = static_cast<double>(n_);
  double a_bound = 1.0 + nn * max_lt + nn * nn * max_ms + max_lw;
  eps_log2_ = 64.0 * nn * nn * DBL_EPSILON * a_bound;
  seq_.resize(n);
  lp_.resize(n + 1);
  mp_.resize(n * n);
  ps_.resize(n * n);
  h_.resize(std::max<size_t>(n, 1));
  fwd_.resize(std::max<size_t>(n, 1));
  bwd_.resize(n + 1);
  size_t m = n > 0 ? n - 1 : 0;
  g_mpb_.resize(m);
  g_mpa_.resize(m);
  g_psb_.resize(m);
  g_ltb_.resize(m);
  g_lwab_.resize(m);
  b_h1_.resize(m);
  b_h2_.resize(m);
  out_.resize(m);
  cur_min_.resize(n);
}

void QonNeighborhoodEvaluator::Load(const JoinSequence& seq) {
  AQO_CHECK(static_cast<int>(seq.size()) == n_);
  AQO_DCHECK(IsPermutation(seq, n_));
  NeighborhoodsCounter().Increment();
  std::copy(seq.begin(), seq.end(), seq_.begin());
  loaded_ = true;
  if (n_ == 0) return;
  size_t n = static_cast<size_t>(n_);
  std::fill(mp_.begin(), mp_.begin() + static_cast<long>(n), kInf);
  std::fill(ps_.begin(), ps_.begin() + static_cast<long>(n), 0.0);
  lp_[0] = 0.0;
  for (size_t p = 1; p < n; ++p) {
    size_t u = static_cast<size_t>(seq_[p - 1]);
    RowMin(mp_.data() + p * n, mp_.data() + (p - 1) * n, lwt_.data() + u * n,
           n_);
    RowAdd(ps_.data() + p * n, ps_.data() + (p - 1) * n,
           mselt_.data() + u * n, n_);
    lp_[p] = lp_[p - 1] + lt_[u] + ps_[(p - 1) * n + u];
  }
  {
    size_t u = static_cast<size_t>(seq_[n - 1]);
    lp_[n] = lp_[n - 1] + lt_[u] + ps_[(n - 1) * n + u];
  }
  // Per-join log2 terms and their log-sum-exp partial folds. fwd_/bwd_
  // let any single-position change reuse the untouched joins: their real
  // values are unchanged, and the fast tier is free to re-associate.
  fwd_[0] = kNegInf;
  bwd_[n] = kNegInf;
  for (size_t p = 1; p < n; ++p) {
    h_[p] = lp_[p] + mp_[p * n + static_cast<size_t>(seq_[p])];
    fwd_[p] = Lse2(fwd_[p - 1], h_[p]);
  }
  for (size_t p = n; p-- > 1;) {
    bwd_[p] = Lse2(h_[p], bwd_[p + 1]);
  }
  if (n >= 1) bwd_[0] = n >= 2 ? bwd_[1] : kNegInf;
}

double QonNeighborhoodEvaluator::BaseCostLog2() const {
  AQO_CHECK(loaded_);
  if (n_ < 2) return kNegInf;
  return fwd_[static_cast<size_t>(n_) - 1];
}

const double* QonNeighborhoodEvaluator::PriceAdjacentAll() {
  AQO_CHECK(loaded_);
  AQO_CHECK(n_ >= 2);
  size_t n = static_cast<size_t>(n_);
  int m = n_ - 1;
  CandidatesCounter().Add(static_cast<uint64_t>(m));
  // Gather the per-candidate operands into contiguous arrays. For the
  // swap (i, i+1) with x = seq[i], y = seq[i+1]:
  //   mpb = min access to y over the first i relations  (new join i)
  //   mpa = min access to x over the first i relations  (part of join i+1)
  //   psb = masked selectivity sum of y toward the first i relations
  //   ltb = log2 t_y, lwab = log2 AccessCost(y, x)
  for (int i = 0; i < m; ++i) {
    size_t si = static_cast<size_t>(i);
    size_t x = static_cast<size_t>(seq_[si]);
    size_t y = static_cast<size_t>(seq_[si + 1]);
    g_mpb_[si] = mp_[si * n + y];
    g_mpa_[si] = mp_[si * n + x];
    g_psb_[si] = ps_[si * n + y];
    g_ltb_[si] = lt_[y];
    g_lwab_[si] = lw_[x * n + y];
  }
  // Branch-free batched pass: h1 = new join-i term, h2 = new join-(i+1)
  // term with y promoted into x's access set. Pure add/min — vectorized.
  BatchAdjacent(b_h1_.data(), b_h2_.data(), lp_.data(), g_mpb_.data(),
                g_mpa_.data(), g_psb_.data(), g_ltb_.data(), g_lwab_.data(),
                m);
  // Scalar log-sum-exp reduction: joins < i fold to fwd_[i-1], joins
  // >= i+2 to bwd_[i+2]. The i = 0 swap has no join at position 0 —
  // b_h1_[0] is +inf (mp_ row 0) and must stay out of the reduction.
  out_[0] = Lse2(b_h2_[0], bwd_[2]);
  for (int i = 1; i < m; ++i) {
    size_t si = static_cast<size_t>(i);
    out_[si] = Lse2(Lse2(fwd_[si - 1], b_h1_[si]),
                    Lse2(b_h2_[si], bwd_[si + 2]));
  }
  return out_.data();
}

double QonNeighborhoodEvaluator::PriceSwap(int i, int j) {
  AQO_CHECK(loaded_);
  AQO_CHECK(0 <= i && i < j && j < n_);
  CandidatesCounter().Increment();
  size_t n = static_cast<size_t>(n_);
  size_t si = static_cast<size_t>(i), sj = static_cast<size_t>(j);
  size_t x = static_cast<size_t>(seq_[si]);
  size_t y = static_cast<size_t>(seq_[sj]);
  // Joins before position i are untouched; joins after position j keep
  // their real value (same prefix multiset, same access-cost set), so the
  // fast fold reuses fwd_/bwd_ and only walks the changed span.
  double acc = i >= 1 ? fwd_[si - 1] : kNegInf;
  if (i >= 1) acc = Lse2(acc, lp_[si] + mp_[si * n + y]);
  // Running min-access row over {seq[0..i-1], y} and running candidate
  // prefix exponent; ps_ rows are corrected for the x -> y substitution
  // via the two masked-selectivity rows of x and y.
  RowMin(cur_min_.data(), mp_.data() + si * n, lwt_.data() + y * n, n_);
  const double* AQO_RESTRICT msx = mselt_.data() + x * n;
  const double* AQO_RESTRICT msy = mselt_.data() + y * n;
  double clp = lp_[si] + lt_[y] + ps_[si * n + y];
  for (size_t p = si + 1; p < sj; ++p) {
    size_t v = static_cast<size_t>(seq_[p]);
    acc = Lse2(acc, clp + cur_min_[v]);
    clp += lt_[v] + (ps_[p * n + v] - msx[v] + msy[v]);
    RowMinInPlace(cur_min_.data(), lwt_.data() + v * n, n_);
  }
  acc = Lse2(acc, clp + cur_min_[x]);
  return Lse2(acc, bwd_[sj + 1]);
}

// --- QO_H ---------------------------------------------------------------

QohNeighborhoodEvaluator::QohNeighborhoodEvaluator(const QohInstance& inst)
    : n_(inst.NumRelations()) {
  AQO_CHECK(n_ >= 2) << "need at least two relations";
  total_joins_ = n_ - 1;
  size_t n = static_cast<size_t>(n_);
  memory_linear_ = inst.memory();
  LogDouble memory = LogDouble::FromLinear(memory_linear_);
  lt_.resize(n);
  rel_hjmin_lin_.resize(n);
  rel_extra_cap_.resize(n);
  rel_denom_log2_.resize(n);
  rel_build_infeasible_.resize(n);
  mselt_.resize(n * n);
  double max_lt = 0.0, max_ms = 0.0, max_denom = 0.0;
  for (int t = 0; t < n_; ++t) {
    size_t st = static_cast<size_t>(t);
    // Per-relation hash-build shapes, computed through the exact same
    // LogDouble expressions QohCostEvaluator uses (cold path), then
    // stored as raw doubles — so the fast tier's *feasibility* inputs
    // (memory floors, build-infeasible bits) are bit-identical to the
    // exact tier's, and only the cost carries the eps bound.
    LogDouble inner = inst.size(t);
    lt_[st] = inner.Log2();
    max_lt = std::max(max_lt, std::fabs(lt_[st]));
    LogDouble hjmin = inst.HashJoinMinMemory(inner);
    rel_build_infeasible_[st] = hjmin > memory ? 1 : 0;
    rel_hjmin_lin_[st] = inst.HashJoinMinMemoryLinear(inner);
    double inner_lin = inner.Log2() <= 52.0
                           ? inner.ToLinear()
                           : std::numeric_limits<double>::infinity();
    rel_extra_cap_[st] = inner_lin - rel_hjmin_lin_[st];
    if (rel_extra_cap_[st] > 0.0) {
      rel_denom_log2_[st] = (inner - hjmin).Log2();
      if (std::isfinite(rel_denom_log2_[st])) {
        max_denom = std::max(max_denom, std::fabs(rel_denom_log2_[st]));
      }
    } else {
      rel_denom_log2_[st] = 0.0;
    }
    for (int k = 0; k < n_; ++k) {
      double ms = inst.graph().HasEdge(t, k) ? inst.selectivity(k, t).Log2()
                                             : 0.0;
      mselt_[static_cast<size_t>(k) * n + st] = ms;
      max_ms = std::max(max_ms, std::fabs(ms));
    }
  }
  // Same shape of bound as the QO_N evaluator, with extra headroom for
  // the DP: near-tied slopes may order the greedy allocator differently
  // across tiers, and the resulting grant perturbation is itself bounded
  // by the slope rounding error. Validated across 1000 seeds.
  double nn = static_cast<double>(n_);
  double mem_mag = std::fabs(std::log2(std::max(memory_linear_, 2.0)));
  double a_bound =
      1.0 + nn * max_lt + nn * nn * max_ms + max_denom + mem_mag + 8.0;
  eps_log2_ = 512.0 * nn * nn * DBL_EPSILON * a_bound;
  seq_.resize(n);
  lp_.resize(n + 1);
  ps_.resize(n * n);
  size_t joins = static_cast<size_t>(total_joins_) + 1;  // 1-based
  jopi_.resize(joins);
  jh1_.resize(joins);
  jslope_.resize(joins);
  jinner_.resize(joins);
  jhjmin_lin_.resize(joins);
  jextra_cap_.resize(joins);
  jinfeasible_.resize(joins);
  dp_.assign(joins, 0.0);
  reach_.assign(joins, 0);
  c_jlp_.resize(n + 1);
  c_jopi_.resize(joins);
  c_jh1_.resize(joins);
  c_jslope_.resize(joins);
  c_jinner_.resize(joins);
  c_jhjmin_lin_.resize(joins);
  c_jextra_cap_.resize(joins);
  c_jinfeasible_.resize(joins);
  c_dp_.resize(joins);
  c_reach_.resize(joins);
  sorted_.resize(n);
  extra_.resize(n);
}

bool QohNeighborhoodEvaluator::PipelineCostFast(
    int first, int last, bool bounded, double bound, const double* jlp,
    const double* jopi, const double* jh1, const double* jinner,
    const double* jhjmin_lin, const double* jextra_cap, double* cost) {
  // Memory floors: the exact same linear doubles folded in the exact same
  // join order as QohCostEvaluator::PipelineCost, so the feasibility
  // verdict is bit-identical (partial sums of non-negative addends are
  // monotone, making the early exit sound).
  double floor_sum = 0.0;
  for (int j = first; j <= last; ++j) {
    floor_sum += jhjmin_lin[static_cast<size_t>(j)];
    if (floor_sum > memory_linear_) return false;
  }
  // Greedy continuous allocation walking sorted_ (maintained by the DP
  // loop). Same linear-double arithmetic as the exact tier; when the fast
  // slope order matches the exact one — always, except on slopes tied to
  // within rounding — the grants are the identical doubles.
  double budget = memory_linear_ - floor_sum;
  size_t len = static_cast<size_t>(last - first + 1);
  std::fill(extra_.begin() + first, extra_.begin() + last + 1, 0.0);
  for (size_t i = 0; i < len; ++i) {
    if (budget <= 0.0) break;
    size_t idx = static_cast<size_t>(sorted_[i]);
    double want = std::min(budget, jextra_cap[idx]);
    if (want <= 0.0) continue;
    extra_[idx] = want;
    budget -= want;
  }
  // The cost fold in raw log2 doubles. Lse2 never rounds below its larger
  // operand, so partials are monotone and the bound exit only prunes
  // candidates that cannot beat the fast DP incumbent.
  double c = Lse2(jlp[static_cast<size_t>(first)],
                  jlp[static_cast<size_t>(last) + 1]);
  if (bounded && c > bound) return false;
  for (int j = first; j <= last; ++j) {
    size_t sj = static_cast<size_t>(j);
    double g = 0.0;
    if (jextra_cap[sj] > 0.0) {
      g = std::clamp(1.0 - extra_[sj] / jextra_cap[sj], 0.0, 1.0);
    }
    double term;
    if (g == 0.0) {
      term = jinner[sj];
    } else if (g == 1.0) {
      term = jh1[sj];
    } else {
      term = Lse2(jopi[sj] + std::log2(g), jinner[sj]);
    }
    c = Lse2(c, term);
    if (bounded && c > bound) return false;
  }
  *cost = c;
  return true;
}

void QohNeighborhoodEvaluator::RunDp(int first_join, const double* jlp,
                                     const double* jopi, const double* jh1,
                                     const double* jslope,
                                     const double* jinner,
                                     const double* jhjmin_lin,
                                     const double* jextra_cap,
                                     const unsigned char* jinfeasible,
                                     double* dp, unsigned char* reach) {
  // Structural mirror of QohCostEvaluator::EvaluateFrom's DP: i descends
  // so the pipeline grows at the front and sorted_ is maintained by
  // insertion; `<=` makes the smallest i win exact ties. Reachability is
  // decided by exactly the inputs the exact DP uses (floors, build bits,
  // reach recursion) — the cost-based prune and pipeline bound below only
  // fire once `any` is true, so they cannot flip a reachability verdict.
  for (int k = first_join; k <= total_joins_; ++k) {
    size_t sk = static_cast<size_t>(k);
    size_t sorted_len = 0;
    bool has_infeasible_join = false;
    bool any = false;
    double best = std::numeric_limits<double>::infinity();
    for (int i = k; i >= 1; --i) {
      size_t si = static_cast<size_t>(i);
      if (jinfeasible[si]) {
        has_infeasible_join = true;
      } else if (!has_infeasible_join) {
        int* begin = sorted_.data();
        int* pos =
            std::partition_point(begin, begin + sorted_len, [&](int j) {
              return jslope[static_cast<size_t>(j)] > jslope[si];
            });
        std::memmove(
            pos + 1, pos,
            static_cast<size_t>(begin + sorted_len - pos) * sizeof(int));
        *pos = i;
        ++sorted_len;
      }
      if (!reach[si - 1]) continue;
      if (has_infeasible_join) continue;
      if (any && dp[si - 1] > best) continue;
      double frag = 0.0;
      if (!PipelineCostFast(i, k, any, best, jlp, jopi, jh1, jinner,
                            jhjmin_lin, jextra_cap, &frag)) {
        continue;
      }
      double candidate = Lse2(dp[si - 1], frag);
      if (!any || candidate <= best) {
        any = true;
        best = candidate;
      }
    }
    reach[sk] = any ? 1 : 0;
    if (any) dp[sk] = best;
  }
}

void QohNeighborhoodEvaluator::Load(const JoinSequence& seq) {
  AQO_CHECK(static_cast<int>(seq.size()) == n_);
  AQO_DCHECK(IsPermutation(seq, n_));
  NeighborhoodsCounter().Increment();
  std::copy(seq.begin(), seq.end(), seq_.begin());
  size_t n = static_cast<size_t>(n_);
  std::fill(ps_.begin(), ps_.begin() + static_cast<long>(n), 0.0);
  lp_[0] = 0.0;
  for (size_t p = 1; p < n; ++p) {
    size_t u = static_cast<size_t>(seq_[p - 1]);
    RowAdd(ps_.data() + p * n, ps_.data() + (p - 1) * n,
           mselt_.data() + u * n, n_);
    lp_[p] = lp_[p - 1] + lt_[u] + ps_[(p - 1) * n + u];
  }
  {
    size_t u = static_cast<size_t>(seq_[n - 1]);
    lp_[n] = lp_[n - 1] + lt_[u] + ps_[(n - 1) * n + u];
  }
  for (int j = 1; j <= total_joins_; ++j) {
    size_t sj = static_cast<size_t>(j);
    size_t v = static_cast<size_t>(seq_[sj]);
    jinner_[sj] = lt_[v];
    jhjmin_lin_[sj] = rel_hjmin_lin_[v];
    jextra_cap_[sj] = rel_extra_cap_[v];
    jinfeasible_[sj] = rel_build_infeasible_[v];
    jopi_[sj] = Lse2(lp_[sj], lt_[v]);
    jh1_[sj] = Lse2(jopi_[sj], lt_[v]);
    // The no-capacity sentinel is -inf: the exact tier stores
    // LogDouble::Zero() (log2 -inf) there, and both sort last under the
    // strict `>` slope comparator, so the insertion order agrees.
    jslope_[sj] = rel_extra_cap_[v] > 0.0 ? jopi_[sj] - rel_denom_log2_[v]
                                          : kNegInf;
  }
  reach_[0] = 1;
  dp_[0] = kNegInf;
  RunDp(1, lp_.data(), jopi_.data(), jh1_.data(), jslope_.data(),
        jinner_.data(), jhjmin_lin_.data(), jextra_cap_.data(),
        jinfeasible_.data(), dp_.data(), reach_.data());
  size_t last = static_cast<size_t>(total_joins_);
  base_feasible_ = reach_[last] != 0;
  base_cost_log2_ = base_feasible_ ? dp_[last] : kNegInf;
  loaded_ = true;
}

double QohNeighborhoodEvaluator::PriceSwap(int i, int j, bool* feasible) {
  AQO_CHECK(loaded_);
  AQO_CHECK(0 <= i && i < j && j < n_);
  CandidatesCounter().Increment();
  size_t n = static_cast<size_t>(n_);
  size_t si = static_cast<size_t>(i), sj = static_cast<size_t>(j);
  size_t x = static_cast<size_t>(seq_[si]);
  size_t y = static_cast<size_t>(seq_[sj]);
  // Start from the base arrays: joins < max(i,1) and > j are unchanged
  // (for the latter, the prefix multiset is identical, so the fast tier
  // reuses the base values — the re-association freedom again), and the
  // DP below k0 is read from the base results.
  std::copy(lp_.begin(), lp_.end(), c_jlp_.begin());
  std::copy(jopi_.begin(), jopi_.end(), c_jopi_.begin());
  std::copy(jh1_.begin(), jh1_.end(), c_jh1_.begin());
  std::copy(jslope_.begin(), jslope_.end(), c_jslope_.begin());
  std::copy(jinner_.begin(), jinner_.end(), c_jinner_.begin());
  std::copy(jhjmin_lin_.begin(), jhjmin_lin_.end(), c_jhjmin_lin_.begin());
  std::copy(jextra_cap_.begin(), jextra_cap_.end(), c_jextra_cap_.begin());
  std::copy(jinfeasible_.begin(), jinfeasible_.end(), c_jinfeasible_.begin());
  std::copy(dp_.begin(), dp_.end(), c_dp_.begin());
  std::copy(reach_.begin(), reach_.end(), c_reach_.begin());
  // Candidate prefix exponents over (i, j]: position i places y, middle
  // positions correct their ps_ row for the x -> y substitution, position
  // j places x (whose ps_ row already counts x itself as +0.0).
  const double* AQO_RESTRICT msx = mselt_.data() + x * n;
  const double* AQO_RESTRICT msy = mselt_.data() + y * n;
  c_jlp_[si + 1] = lp_[si] + lt_[y] + ps_[si * n + y];
  for (size_t p = si + 1; p < sj; ++p) {
    size_t v = static_cast<size_t>(seq_[p]);
    c_jlp_[p + 1] = c_jlp_[p] + lt_[v] + (ps_[p * n + v] - msx[v] + msy[v]);
  }
  c_jlp_[sj + 1] = c_jlp_[sj] + lt_[x] + (ps_[sj * n + x] - msx[x] + msy[x]);
  int k0 = std::max(i, 1);
  for (int jj = k0; jj <= j; ++jj) {
    size_t sjj = static_cast<size_t>(jj);
    size_t v = jj == i ? y : jj == j ? x : static_cast<size_t>(seq_[sjj]);
    c_jinner_[sjj] = lt_[v];
    c_jhjmin_lin_[sjj] = rel_hjmin_lin_[v];
    c_jextra_cap_[sjj] = rel_extra_cap_[v];
    c_jinfeasible_[sjj] = rel_build_infeasible_[v];
    c_jopi_[sjj] = Lse2(c_jlp_[sjj], lt_[v]);
    c_jh1_[sjj] = Lse2(c_jopi_[sjj], lt_[v]);
    c_jslope_[sjj] = rel_extra_cap_[v] > 0.0
                         ? c_jopi_[sjj] - rel_denom_log2_[v]
                         : kNegInf;
  }
  RunDp(k0, c_jlp_.data(), c_jopi_.data(), c_jh1_.data(), c_jslope_.data(),
        c_jinner_.data(), c_jhjmin_lin_.data(), c_jextra_cap_.data(),
        c_jinfeasible_.data(), c_dp_.data(), c_reach_.data());
  size_t last = static_cast<size_t>(total_joins_);
  *feasible = c_reach_[last] != 0;
  return *feasible ? c_dp_[last] : kNegInf;
}

}  // namespace aqo
