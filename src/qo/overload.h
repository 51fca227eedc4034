#ifndef AQO_QO_OVERLOAD_H_
#define AQO_QO_OVERLOAD_H_

// Deterministic load governor for the serve path (tools/aqo_serve.cc).
//
// The serve loop is serial, so real queue depth is invisible to it: by
// the time a frame is parsed the kernel pipe holds whatever backlog the
// clients built up, and peeking at it would make admission depend on
// scheduling. Instead the governor models pressure as a pair of leaky
// buckets indexed by *arrival slot*, which makes every decision a pure
// function of the request stream:
//
//   * a depth bucket counts admitted requests; it drains a fixed number
//     of request units per arrival (the capacity the server is assumed
//     to clear between arrivals);
//   * a cost bucket accumulates per-request work estimates
//     (EstimateCostUnits: a deterministic function of the registry entry,
//     its knobs, and n — roughly "evaluations this request will burn"); it
//     drains a fixed number of cost units per arrival.
//
// Pressure is the fuller bucket's fill fraction, reported in permille.
// Two thresholds carve it into tiers:
//
//   tier 0 (admit)   pressure <  degrade threshold  — run as requested
//   tier 1 (degrade) pressure >= degrade threshold  — rewrite to the
//            entry's declared cheap fallback or effort clamp (Degrade:
//            dp → greedy, SA/GA restart counts clamped, ...) and stamp
//            the response degraded=1
//   tier 2 (shed)    admitting would overflow a bucket — reject with
//            `err <id> shed: <reason>` before any optimization work
//
// The work estimate and the degrade rule are declared on each registry
// entry (OptimizerEntryT::work / degrade_to / clamp, qo/registry.cc), so
// this module names no optimizer.
//
// Same request stream + same thresholds => byte-identical shed and
// degrade sets, across runs and thread counts (tests/overload_test.cc).
// A default-constructed (disarmed) governor admits everything and
// touches nothing — the serve path stays byte-identical to an ungoverned
// build.
//
// Telemetry: qo.overload.{admits,degrades,sheds} counters, the
// qo.overload.pressure_permille gauge, and an `overload_decision` JSONL
// record per shed/degrade when a run log is attached
// (docs/robustness.md).

#include <cstdint>
#include <string>

#include "qo/registry.h"
#include "util/cancellation.h"

namespace aqo {

struct OverloadOptions {
  // Depth bucket: capacity in request units; 0 disables the dimension.
  double queue_capacity = 0.0;
  // Request units drained per arrival slot.
  double drain_requests = 1.0;

  // Cost bucket: capacity in cost units (see EstimateCostUnits); 0
  // disables the dimension.
  double cost_capacity = 0.0;
  // Cost units drained per arrival slot. 0 = cost_capacity / 16 (a
  // server assumed to clear 1/16th of its backlog ceiling per arrival).
  double drain_cost = 0.0;

  // Fill fraction at which tier 1 (degrade) starts, in [0, 1]. Admission
  // into a bucket past its capacity is tier 2 (shed) regardless.
  double degrade_threshold = 0.75;

  bool armed() const { return queue_capacity > 0.0 || cost_capacity > 0.0; }
};

enum class OverloadTier {
  kAdmit = 0,
  kDegrade = 1,
  kShed = 2,
};

const char* OverloadTierName(OverloadTier tier);

struct OverloadDecision {
  OverloadTier tier = OverloadTier::kAdmit;
  // Pressure *after* this arrival's drain, *before* admitting it, in
  // permille of the fuller armed bucket.
  uint64_t pressure_permille = 0;
  // Cost estimate the decision was based on (post-degrade estimate when
  // tier == kDegrade).
  double cost_units = 0.0;
  // Human-readable reason, non-empty for kDegrade/kShed (the shed reason
  // is what `err <id> shed: <reason>` carries).
  std::string reason;
};

// n! via lgamma, saturating at 2^50: the work rule of the exhaustive
// entries.
double Factorial(int n);

// An entry's work estimate clamped into [1, 2^50], and to the
// deterministic evaluation cap when one is set.
double ApplyBudget(double estimate, const Budget& budget);

// Deterministic per-request work estimate in "cost units" (roughly cost
// evaluations): the entry's declared work rule at n relations under
// ApplyBudget.
template <typename Entry>
double EstimateCostUnits(const Entry& entry,
                         const typename Entry::Options& options, int n) {
  return ApplyBudget(entry.work(options, n), options.budget);
}

// The declared degradation rewrite: the entry's fallback when it names
// one (options untouched), else the entry itself with its effort clamp
// applied to `options` in place. Clamps never raise effort, and a floor
// entry (greedy) passes through unchanged. Deterministic: same inputs,
// same rewrite.
template <typename Entry>
const Entry& Degrade(const registry_internal::RegistryT<Entry>& registry,
                     const Entry& entry, typename Entry::Options* options) {
  if (!entry.degrade_to.empty()) return *registry.Find(entry.degrade_to);
  if (entry.clamp != nullptr) entry.clamp(options);
  return entry;
}

// The governor. Not thread-safe: the serve loop is the single caller,
// and determinism comes from arrival order.
class LoadGovernor {
 public:
  explicit LoadGovernor(const OverloadOptions& options = {});

  bool armed() const { return options_.armed(); }
  const OverloadOptions& options() const { return options_; }

  // One arrival: drains both buckets by one slot, then decides the tier
  // for a request estimated at `cost_units`. kAdmit/kDegrade add the
  // (possibly degraded) estimate to the buckets; kShed adds nothing.
  // `degraded_cost_units` is the estimate under the degrade rewrite —
  // the governor degrades rather than sheds whenever the cheap form
  // still fits. Disarmed governors return kAdmit with pressure 0.
  OverloadDecision OnArrival(double cost_units, double degraded_cost_units);

  // Control frames (ping/health/snapshot) drain but never shed; they
  // cost nothing. Keeps "pressure" meaning arrival slots, not verbs.
  void OnControlFrame();

  // Current fill fraction of the fuller armed bucket, in permille.
  uint64_t PressurePermille() const;

  uint64_t admits() const { return admits_; }
  uint64_t degrades() const { return degrades_; }
  uint64_t sheds() const { return sheds_; }

 private:
  void Drain();

  OverloadOptions options_;
  double pending_requests_ = 0.0;
  double pending_cost_ = 0.0;
  uint64_t admits_ = 0;
  uint64_t degrades_ = 0;
  uint64_t sheds_ = 0;
};

}  // namespace aqo

#endif  // AQO_QO_OVERLOAD_H_
