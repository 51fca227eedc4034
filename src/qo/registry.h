#ifndef AQO_QO_REGISTRY_H_
#define AQO_QO_REGISTRY_H_

// Name -> optimizer registries with one uniform call signature per
// problem family:
//
//   QO_N:  (const QonInstance&, const OptimizerOptions&, Rng*)
//              -> OptimizerResult
//   QO_H:  (const QohInstance&, const QohOptimizerOptions&, Rng*)
//              -> QohOptimizerResult
//
// Both families share one entry shape (OptimizerEntryT) and one registry
// implementation (registry_internal::RegistryT); only the instance /
// options / result types differ. An entry carries metadata — name,
// description, determinism, cacheability, and a knob schema naming the
// harness flags that feed it, its overload rules (qo/overload.h), and the
// relation-count domain it accepts — so front-ends render
// `--optimizers=help` from Describe() instead of hand-maintaining flag
// docs, the load governor prices and degrades a request without naming
// optimizers, and out-of-domain instances are rejected before an
// optimizer can abort on them.
//
// Benches and tools select optimizers by name (--optimizers=a,b,c)
// instead of hand-rolling call lists; the batch service (qo/service.h)
// resolves its optimizer the same way, so every optimizer is cacheable
// and batchable for free. Deterministic optimizers ignore the Rng (it
// may be null for them); stochastic ones consume it, and equal (instance,
// options, rng-state) triples produce bit-identical results — the
// registry wrappers add no randomness and no reordering of their own.
// The one exception to "pure function of (instance, options, seed)" is
// `adaptive` (qo/adaptive.h), whose result also depends on its feedback
// store's committed state: its entry carries cacheable = false and the
// batch service never probes or populates a PlanCache for it.
//
// The invoke path (Run) reports a RunOutcome to options.feedback when the
// caller set one — that is how the adaptive feedback loop observes every
// optimizer without the optimizers knowing about it. Reporting is
// observational only and never changes results.
//
// Unknown names are a contract violation: Find returns nullptr so
// front-ends can exit nonzero with the valid-name list (never a silent
// skip), while Run CHECK-fails for programmatic callers.

#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qo/optimizers.h"
#include "qo/qoh_optimizers.h"
#include "util/random.h"

namespace aqo {

// One knob an entry reads, named by the harness flag that sets it (see
// bench/bench_common.h ReadQonKnobs/ReadQohKnobs) — purely descriptive
// metadata for Describe() listings.
struct KnobSpec {
  std::string flag;         // e.g. "--sa-iterations="
  std::string description;  // one line
};

// The unified registry entry: per-family only in its three type
// parameters, identical in shape and metadata otherwise.
template <typename InstanceT, typename OptionsT, typename ResultT>
struct OptimizerEntryT {
  using Instance = InstanceT;
  using Options = OptionsT;
  using Result = ResultT;

  std::string name;         // canonical registry name
  std::string description;  // one line, shown in --help style listings
  bool deterministic = false;  // true: ignores the Rng entirely
  // False when the result depends on mutable process state (adaptive's
  // feedback store) — such entries must never be served from or inserted
  // into a PlanCache, and the batch service enforces exactly that.
  bool cacheable = true;
  std::vector<KnobSpec> knobs;  // the flags this entry reads
  std::function<Result(const Instance&, const Options&, Rng*)> run;
  // Overload rules (qo/overload.h). `work` estimates the evaluations one
  // run burns at n relations, before the budget cap. Under degrade the
  // governor runs `degrade_to` instead when it is set; otherwise it
  // applies `clamp` to the knobs (null: the entry is already the floor).
  double (*work)(const Options& options, int n) = nullptr;
  std::string degrade_to = {};
  void (*clamp)(Options* options) = nullptr;
  // Domain: the relation counts min_n <= n <= max_n the entry accepts.
  // Outside it the optimizer aborts (CHECK), so front-ends test InDomain
  // before running anything and answer with DomainError instead (the
  // batch service marks such items kFailed; aqo_serve answers
  // `err <id> domain: ...`, docs/robustness.md).
  int min_n = 2;
  int max_n = std::numeric_limits<int>::max();  // max() = unbounded

  bool InDomain(int n) const { return min_n <= n && n <= max_n; }
  // "2 <= n <= 24", or "n >= 2" when unbounded.
  std::string DomainText() const {
    if (max_n == std::numeric_limits<int>::max()) {
      return "n >= " + std::to_string(min_n);
    }
    return std::to_string(min_n) + " <= n <= " + std::to_string(max_n);
  }
  // "optimizer 'dp' accepts 2 <= n <= 24, got n=25".
  std::string DomainError(int n) const {
    return "optimizer '" + name + "' accepts " + DomainText() +
           ", got n=" + std::to_string(n);
  }
};

using QonOptimizerEntry =
    OptimizerEntryT<QonInstance, OptimizerOptions, OptimizerResult>;
using QohOptimizerEntry =
    OptimizerEntryT<QohInstance, QohOptimizerOptions, QohOptimizerResult>;

namespace registry_internal {

// Shared registry implementation: alias resolution, name listing, the
// Describe() help text, and the instrumented + feedback-reporting invoke
// path. Instantiated once per family in registry.cc.
template <typename Entry>
class RegistryT {
 public:
  using Instance = typename Entry::Instance;
  using Options = typename Entry::Options;
  using Result = typename Entry::Result;

  // Resolves a name or alias; nullptr when unknown.
  const Entry* Find(std::string_view name) const;

  // Canonical names in registration order (aliases excluded).
  std::vector<std::string> Names() const;

  // (alias, canonical) pairs in registration order.
  const std::vector<std::pair<std::string, std::string>>& Aliases() const {
    return aliases_;
  }

  // Multi-line human-readable listing of every entry: name, description,
  // domain, determinism/cacheability markers, knob schema, and the alias
  // table.
  // This is what --optimizers=help prints.
  std::string Describe() const;

  // Runs a registered optimizer; CHECK-fails on unknown names. Records
  // the invocation latency into <family>.<name>.invoke_us and reports a
  // RunOutcome to options.feedback when set.
  Result Run(std::string_view name, const Instance& inst,
             const Options& options, Rng* rng) const;

 protected:
  RegistryT(std::string family, std::vector<Entry> entries,
            std::vector<std::pair<std::string, std::string>> aliases)
      : family_(std::move(family)),
        entries_(std::move(entries)),
        aliases_(std::move(aliases)) {}

 private:
  std::string family_;  // "qon" | "qoh": histogram prefix + RunOutcome tag
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> aliases_;
};

}  // namespace registry_internal

// Fills a RunOutcome from a finished run — shared by the registry invoke
// path and qo/adaptive.cc (which reports its inner runs itself).
template <typename Instance, typename Result>
RunOutcome MakeRunOutcome(std::string_view family, std::string_view optimizer,
                          const Instance& inst, const Result& result) {
  RunOutcome out;
  out.family = std::string(family);
  out.optimizer = std::string(optimizer);
  out.n = inst.NumRelations();
  out.edges = inst.graph().NumEdges();
  out.feasible = result.feasible;
  out.cost_log2 = result.cost.Log2();
  out.evaluations = result.evaluations;
  out.status = result.status;
  return out;
}

class OptimizerRegistry
    : public registry_internal::RegistryT<QonOptimizerEntry> {
 public:
  // The built-in QO_N registry: exhaustive, dp, greedy, random, ii, sa,
  // genetic (alias: ga), bnb, cout, kbz, adaptive.
  static const OptimizerRegistry& Qon();

 private:
  OptimizerRegistry(std::vector<QonOptimizerEntry> entries,
                    std::vector<std::pair<std::string, std::string>> aliases)
      : RegistryT("qon", std::move(entries), std::move(aliases)) {}
};

class QohOptimizerRegistry
    : public registry_internal::RegistryT<QohOptimizerEntry> {
 public:
  // The built-in QO_H registry: exhaustive, greedy, random (alias:
  // sample), ii, sa, adaptive.
  static const QohOptimizerRegistry& Get();

 private:
  QohOptimizerRegistry(std::vector<QohOptimizerEntry> entries,
                       std::vector<std::pair<std::string, std::string>> aliases)
      : RegistryT("qoh", std::move(entries), std::move(aliases)) {}
};

// Splits a comma-separated --optimizers= value into trimmed, non-empty
// names ("greedy, ii" -> {"greedy", "ii"}).
std::vector<std::string> ParseOptimizerList(std::string_view csv);

}  // namespace aqo

#endif  // AQO_QO_REGISTRY_H_
