#ifndef AQO_QO_ADAPTIVE_H_
#define AQO_QO_ADAPTIVE_H_

// The `adaptive` meta-optimizer: learned optimizer selection over a
// deterministic feedback store (docs/adaptive.md).
//
// Every run of any registry optimizer can be summarized as a
// FeedbackRecord: label-invariant instance features (extracted from the
// canonical form, qo/fingerprint.h) plus the observed outcome (cost,
// regret against the best sibling run of the same decision, evaluations,
// status). The FeedbackStore accumulates such records and answers: "which
// candidate optimizer is predicted to land within quality_target of the
// best, at the least evaluation effort?" via seeded k-nearest-neighbor
// regression over the features — the kNN-over-instance-features design of
// postgrespro/aqo, restricted to deterministic arithmetic.
//
// Determinism contract (enforced by tests/adaptive_differential_test.cc):
//
//   * Decisions read only the *committed* store state. Record() buffers
//     into a pending set; Commit() folds pending records in a sorted,
//     deduplicated order. The batch service commits once per batch (its
//     serial epilogue), so every decision inside a batch sees the same
//     state regardless of thread count, cache attachment, or duplicate
//     expansion — and batch N+1 learns from batch N.
//   * The adaptive optimizers never consume the caller's Rng (it may be
//     null). Exploration draws from Rng(MixSeed(knobs.seed,
//     fingerprint.lo)), so the decision is a pure function of (committed
//     store state, canonical instance, knobs).
//   * Adaptive always also runs its fallback entry and returns whichever
//     plan costs less (ties go to the fallback), so for any store state —
//     cold, warm, or corrupt-and-salvaged — the result is a valid plan
//     with cost <= the fallback's cost.
//   * Every decision emits an `adaptive_decision` run-log record carrying
//     the features, per-candidate predictions, the exploration seed, and
//     the inner outcomes; `adaptive_commit` records mark commit
//     boundaries. ReplayDecisionLog() re-derives every choice from those
//     records alone — the replay tool (tools/aqo_adaptive_replay.cc)
//     exits nonzero if any decision fails to reconstruct.
//
// Learning survives restarts through the qo/persist record format
// (PersistFileKind::kFeedback): SaveTo/LoadFrom write and recover framed
// record files with the same torn-tail tolerance as the plan cache, and
// AttachFile() makes every Commit() append write-through.

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "qo/fingerprint.h"
#include "qo/optimizers.h"
#include "qo/qoh_optimizers.h"
#include "qo/registry.h"
#include "util/cancellation.h"
#include "util/hash.h"
#include "util/random.h"

namespace aqo {

enum class AdaptiveFamily : uint8_t { kQon = 0, kQoh = 1 };

const char* AdaptiveFamilyName(AdaptiveFamily family);

// Label-invariant instance features. All statistics are computed over the
// canonical instance in canonical index order, so every field is
// *bitwise* identical across 1-WL-equivalent relabelings (floating-point
// summation order included). Log-domain fields are clamped to
// [-1024, 1024] so degenerate inputs (zero sizes) cannot poison the
// arithmetic with infinities.
struct InstanceFeatures {
  int n = 0;
  int edges = 0;
  double edge_density = 0.0;    // 2E / (n(n-1)); 0 when n < 2
  double log_size_mean = 0.0;   // mean log2 relation size
  double log_size_min = 0.0;
  double log_size_max = 0.0;
  double sel_log_mean = 0.0;    // mean log2 selectivity over edges (<= 0)
  double sel_log_min = 0.0;
  double access_log_mean = 0.0;  // QO_N only: mean log2 access cost
  double access_log_max = 0.0;   // QO_N only
  double memory_log2 = 0.0;      // QO_H only: log2 of the memory budget
  double eta = 0.0;              // QO_H only
  uint64_t wl_class = 0;  // fingerprint.lo: the 1-WL canonical class id
};

InstanceFeatures ExtractFeatures(const CanonicalQon& canon);
InstanceFeatures ExtractFeatures(const CanonicalQoh& canon);

// One observed optimizer run, keyed by the instance's features.
struct FeedbackRecord {
  AdaptiveFamily family = AdaptiveFamily::kQon;
  std::string optimizer;   // canonical registry entry name
  uint64_t knob_hash = 0;  // AdaptiveKnobHash of the options it ran under
  InstanceFeatures features;
  bool feasible = false;
  double cost_log2 = 0.0;    // 0 when infeasible
  double regret_log2 = 0.0;  // cost_log2 - best sibling cost_log2 (>= 0)
  uint64_t evaluations = 0;
  PlanStatus status = PlanStatus::kComplete;
};

// --- Record codec (exposed for tests and the replay tool) ---

// Serializes `rec` as an opaque persist payload (frame it with
// EncodeFramedRecord for on-disk storage).
std::string EncodeFeedbackPayload(const FeedbackRecord& rec);

// Strict decode with pre-validation (family/status ranges, finite
// doubles, exact length); false with a reason on any malformed byte.
bool DecodeFeedbackPayload(std::string_view payload, FeedbackRecord* out,
                           std::string* error);

// Hash of every knob that shapes a candidate optimizer's result (the
// cache-key fields minus fingerprint and seed). Lets neighbor matching
// discount records obtained under different knob settings.
uint64_t AdaptiveKnobHash(const OptimizerOptions& options);
uint64_t AdaptiveKnobHash(const QohOptimizerOptions& options);

struct FeedbackLoadStats {
  bool existed = false;
  uint64_t records = 0;     // newly committed into the store
  uint64_t duplicates = 0;  // byte-identical records skipped
  bool torn_tail = false;   // file ended mid-record (crash artifact)
  std::string damage;       // non-empty: reason replay stopped early
};

// Per-candidate kNN prediction, reported in the decision log.
struct CandidatePrediction {
  std::string optimizer;
  uint64_t trials = 0;  // committed records for this (family, candidate)
  double predicted_regret_log2 = 0.0;
  double predicted_evaluations = 0.0;
  bool eligible = false;  // within quality_target of the predicted best
};

struct Recommendation {
  std::string optimizer;  // the chosen candidate
  bool explored = false;  // true: seeded draw over under-tried candidates
  std::vector<CandidatePrediction> candidates;  // in candidate order
};

// The feedback store. Thread-safe; decisions read committed state only.
class FeedbackStore {
 public:
  FeedbackStore() = default;
  FeedbackStore(const FeedbackStore&) = delete;
  FeedbackStore& operator=(const FeedbackStore&) = delete;

  // The process-wide store used when AdaptiveKnobs.store is null.
  static FeedbackStore& Default();

  // Buffers one record into the pending set (thread-safe; called from
  // pool workers inside a batch).
  void Record(const FeedbackRecord& rec);

  // Folds pending records into committed state: sorted by encoded bytes
  // (a deterministic total order independent of Record() arrival order)
  // and deduplicated against everything already committed, so cache-off
  // duplicate recomputation commits exactly what cache-on dedup would.
  // Appends each newly committed record to the attached file, if any.
  // Returns the number of newly committed records.
  uint64_t Commit();

  size_t CommittedSize() const;
  size_t PendingSize() const;

  // Drops all state (committed, pending, digests); keeps the attachment.
  void Clear();

  // The decision rule (docs/adaptive.md): per candidate, the k nearest
  // committed neighbors (by deterministic feature distance, ties broken
  // by commit order) predict regret and evaluation effort. Candidates
  // with fewer than min_trials committed records are explored first — a
  // seeded uniform draw via Rng(decision_seed). Otherwise the cheapest
  // candidate predicted within quality_target of the best is exploited
  // (ties toward candidate order).
  Recommendation Recommend(const InstanceFeatures& features,
                           AdaptiveFamily family,
                           const std::vector<std::string>& candidates,
                           uint64_t knob_hash, double quality_target,
                           int k_neighbors, int min_trials,
                           uint64_t decision_seed) const;

  // --- Persistence (qo/persist framing, PersistFileKind::kFeedback) ---

  // Writes the full committed state to `path`. False with a reason on
  // I/O failure.
  bool SaveTo(const std::string& path, std::string* error = nullptr) const;

  // Lenient load: salvages every intact record before any damage point
  // and commits it (deduplicated). A missing file is existed = false and
  // success; a header-level problem is reported in `damage` with zero
  // records.
  FeedbackLoadStats LoadFrom(const std::string& path);

  // Opens `path` for write-through appends from Commit(), creating it
  // (with a header) when absent and repairing a torn tail first. False
  // with a reason on failure.
  bool AttachFile(const std::string& path, std::string* error = nullptr);

 private:
  uint64_t CommitLocked();

  mutable std::mutex mu_;
  std::vector<FeedbackRecord> committed_;
  std::vector<FeedbackRecord> pending_;
  // Digests of committed records' encoded bytes, for dedup.
  std::unordered_set<Hash128, Hash128Hasher> digests_;
  std::string attached_path_;  // empty: no write-through
  bool attach_failed_ = false;
};

// Family default candidate sets (every name resolvable in the family's
// registry; never contains "adaptive").
std::vector<std::string> DefaultAdaptiveCandidates(AdaptiveFamily family);

// The magnitude domain: the sum of |log2 size| over an instance's
// relations and |log2 selectivity| over its edges must not exceed this
// bound, so that every fold of either cost model stays finite (derivation
// at InstanceMagnitudeError in qo/adaptive.cc).
inline constexpr double kMaxInstanceLog2Magnitude = 1e300;

// Domain admission for running `entry` under `options` on `inst`
// (docs/robustness.md): "" when it can run, else the reason. Outside the
// entry's own relation-count domain that is entry.DomainError(n). For
// `adaptive` it is also its fallback's domain error, or a fallback or
// candidate name this family's registry does not know: the fallback
// always runs, while out-of-domain candidates are only dropped before
// the decision. Last, an instance outside the magnitude domain is
// refused for every entry. Front-ends (aqo_serve and the batch service)
// call this before running anything; the adaptive run CHECK-fails where
// it is non-empty.
std::string EntryDomainError(const QonOptimizerEntry& entry,
                             const OptimizerOptions& options,
                             const QonInstance& inst);
std::string EntryDomainError(const QohOptimizerEntry& entry,
                             const QohOptimizerOptions& options,
                             const QohInstance& inst);

// The meta-optimizers behind the `adaptive` registry entries. The Rng
// parameter is never consumed (may be null); see the determinism contract
// above. The returned plan is always at least as cheap as the fallback's,
// evaluations count the total inner effort, and both inner outcomes are
// recorded (pending) into the knobs' store.
OptimizerResult AdaptiveQonOptimizer(const QonInstance& inst,
                                     const OptimizerOptions& options,
                                     Rng* rng);
QohOptimizerResult AdaptiveQohOptimizer(const QohInstance& inst,
                                        const QohOptimizerOptions& options,
                                        Rng* rng);

// Commits the knobs' store (Default() when null), emits an
// `adaptive_commit` run-log record when a log is attached, and returns
// the newly committed record count. The batch service calls this in its
// serial epilogue after every adaptive batch.
uint64_t CommitAdaptiveFeedback(const AdaptiveKnobs& knobs);

// --- Decision-log replay ---

struct DecisionReplayStats {
  uint64_t decisions = 0;   // adaptive_decision records replayed
  uint64_t commits = 0;     // adaptive_commit records applied
  uint64_t mismatches = 0;  // decisions that failed to reconstruct
  std::string error;        // first mismatch / parse problem
};

// Replays a JSONL stream of adaptive_decision / adaptive_commit records
// against `store` (which must hold the same initial state the logged
// process started from — usually empty): re-derives every choice with
// Recommend() and verifies it matches the logged one, then applies the
// logged outcomes exactly as the original run did. Unrelated records are
// skipped.
DecisionReplayStats ReplayDecisionLog(std::istream& jsonl,
                                      FeedbackStore* store);

}  // namespace aqo

#endif  // AQO_QO_ADAPTIVE_H_
