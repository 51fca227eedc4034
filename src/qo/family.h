#ifndef AQO_QO_FAMILY_H_
#define AQO_QO_FAMILY_H_

// The two problem families, QO_N (qo/qon.h) and QO_H (qo/qoh.h), as one
// traits pair. The batch service, the plan-cache key, adaptive and
// aqo_serve's request handler are each written once as a template over a
// family (docs/architecture.md). AddResultKnobs folds every knob that
// shapes a result into both persisted hashes, the plan-cache key and the
// adaptive knob hash, so its order is frozen
// (tests/cache_key_golden_test.cc).

#include <string_view>
#include <vector>

#include "qo/fingerprint.h"
#include "qo/plan_cache.h"
#include "qo/registry.h"
#include "util/hash.h"

namespace aqo {

class ThreadPool;

struct QonFamily {
  using Instance = QonInstance;
  using Options = OptimizerOptions;
  using Result = OptimizerResult;
  using Canonical = CanonicalQon;
  using Entry = QonOptimizerEntry;
  static constexpr std::string_view kName = "qon";
  static constexpr std::string_view kTitle = "QO_N";
  static constexpr uint64_t kKeyTag = 0x716f6e5f6b657931ULL;   // "qon_key1"
  static constexpr uint64_t kKnobTag = 0x716f6e5f6b6e6f62ULL;  // "qon_knob"

  static const OptimizerRegistry& Registry() {
    return OptimizerRegistry::Qon();
  }
  static Canonical Canonicalize(const Instance& inst) {
    return CanonicalizeQon(inst);
  }
  // No QO_N knob names a relation.
  static void ToCanonicalKnobs(Options*, const Canonical&) {}
  static void AddResultKnobs(HashAccumulator* acc, const Options& o) {
    acc->Add(o.forbid_cartesian ? 1 : 0);
    acc->Add(static_cast<uint64_t>(o.samples));
    acc->Add(static_cast<uint64_t>(o.restarts));
    acc->Add(static_cast<uint64_t>(o.sa.iterations));
    acc->AddDouble(o.sa.initial_temperature);
    acc->AddDouble(o.sa.cooling);
    acc->Add(static_cast<uint64_t>(o.sa.restarts));
    acc->Add(static_cast<uint64_t>(o.ga.population));
    acc->Add(static_cast<uint64_t>(o.ga.generations));
    acc->AddDouble(o.ga.crossover_rate);
    acc->AddDouble(o.ga.mutation_rate);
    acc->Add(static_cast<uint64_t>(o.ga.tournament));
    acc->Add(static_cast<uint64_t>(o.ga.elites));
    acc->Add(o.bnb_node_limit);
    // Deterministic eval cap: different caps yield different (valid)
    // best-so-far plans, so they must not alias. Deadlines and cancel
    // tokens are deliberately absent — deadline-cut plans are never
    // cached in the first place.
    acc->Add(o.budget.max_evaluations);
  }
  // batch.qon of a BatchOptions (qo/service.h).
  template <typename Batch>
  static auto& Knobs(Batch& batch) {
    return batch.qon;
  }
  static void SetPool(Options* o, ThreadPool* pool) { o->pool = pool; }
  // No pipeline decomposition.
  template <typename R>
  static std::vector<int>* Pipelines(R&) {
    return nullptr;
  }
};

struct QohFamily {
  using Instance = QohInstance;
  using Options = QohOptimizerOptions;
  using Result = QohOptimizerResult;
  using Canonical = CanonicalQoh;
  using Entry = QohOptimizerEntry;
  static constexpr std::string_view kName = "qoh";
  static constexpr std::string_view kTitle = "QO_H";
  static constexpr uint64_t kKeyTag = 0x716f685f6b657931ULL;   // "qoh_key1"
  static constexpr uint64_t kKnobTag = 0x716f685f6b6e6f62ULL;  // "qoh_knob"

  static const QohOptimizerRegistry& Registry() {
    return QohOptimizerRegistry::Get();
  }
  static Canonical Canonicalize(const Instance& inst) {
    return CanonicalizeQoh(inst);
  }
  // sentinel_first names a relation in caller labels; optimizers run on
  // the canonical instance, and the cache key folds the canonical form —
  // the form two relabeled duplicates agree on.
  static void ToCanonicalKnobs(Options* o, const Canonical& canon) {
    if (o->sentinel_first >= 0) {
      o->sentinel_first =
          canon.to_canonical[static_cast<size_t>(o->sentinel_first)];
    }
  }
  static void AddResultKnobs(HashAccumulator* acc, const Options& o) {
    acc->Add(static_cast<uint64_t>(o.samples));
    acc->Add(static_cast<uint64_t>(o.restarts));
    acc->Add(static_cast<uint64_t>(static_cast<int64_t>(o.sentinel_first)));
    acc->Add(static_cast<uint64_t>(o.sa.iterations));
    acc->AddDouble(o.sa.initial_temperature);
    acc->AddDouble(o.sa.cooling);
    acc->Add(static_cast<uint64_t>(o.sa.restarts));
    acc->Add(o.budget.max_evaluations);  // see QonFamily
  }
  template <typename Batch>
  static auto& Knobs(Batch& batch) {
    return batch.qoh;
  }
  // QO_H optimizers run single-threaded.
  static void SetPool(Options*, ThreadPool*) {}
  // Decompositions are positional (fragment boundaries by join index),
  // so they survive relabeling unchanged.
  template <typename R>
  static auto* Pipelines(R& result) {
    return &result.decomposition.starts;
  }
};

template <typename Family>
CachedPlan ToPlan(const typename Family::Result& r) {
  const std::vector<int>* starts = Family::Pipelines(r);
  return CachedPlan{r.feasible, r.sequence,
                    starts != nullptr ? *starts : std::vector<int>{},
                    r.cost, r.evaluations, r.status};
}

// `plan` in canonical labels -> `out` in the caller's labels.
template <typename Family>
void FromPlan(const CachedPlan& plan, const std::vector<int>& from_canonical,
              typename Family::Result* out) {
  out->feasible = plan.feasible;
  out->cost = plan.cost;
  out->evaluations = plan.evaluations;
  out->status = plan.status;
  out->sequence = MapSequenceFromCanonical(plan.sequence, from_canonical);
  if (std::vector<int>* starts = Family::Pipelines(*out)) {
    *starts = plan.pipeline_starts;
  }
}

}  // namespace aqo

#endif  // AQO_QO_FAMILY_H_
