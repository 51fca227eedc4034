#include "qo/service.h"

#include <exception>
#include <unordered_map>
#include <utility>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "qo/adaptive.h"
#include "qo/family.h"
#include "util/cancellation.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace aqo {

namespace {

void AddString(HashAccumulator* acc, std::string_view s) {
  acc->Add(s.size());
  for (char c : s) acc->Add(static_cast<uint64_t>(static_cast<uint8_t>(c)));
}

// Deterministic optimizers ignore the Rng; folding a fixed sentinel
// instead of the seed lets their entries hit across seeds.
constexpr uint64_t kDeterministicSeed = 0x64657465726d696eULL;

// Lowercase hex of a canonical fingerprint, for trace-slice annotation.
std::string FingerprintHex(const Hash128& h) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<size_t>(15 - i)] = kDigits[(h.hi >> (4 * i)) & 0xf];
    out[static_cast<size_t>(31 - i)] = kDigits[(h.lo >> (4 * i)) & 0xf];
  }
  return out;
}

// The outcome-split per-item latency histogram: batch items report into
// one of four distributions so a p99 regression in computed items is not
// drowned out by a sea of microsecond cache hits.
obs::Histogram& ItemHistogram(PlanStatus status, bool cache_hit) {
  static obs::Histogram& hit_us =
      obs::Registry::Get().GetHistogram("qo.service.item_cache_hit_us");
  static obs::Histogram& computed_us =
      obs::Registry::Get().GetHistogram("qo.service.item_computed_us");
  static obs::Histogram& failed_us =
      obs::Registry::Get().GetHistogram("qo.service.item_failed_us");
  static obs::Histogram& deadline_us =
      obs::Registry::Get().GetHistogram("qo.service.item_deadline_us");
  if (cache_hit) return hit_us;
  switch (status) {
    case PlanStatus::kFailed:
      return failed_us;
    case PlanStatus::kDeadlineExceeded:
      return deadline_us;
    default:
      return computed_us;
  }
}

// Runs items [0, count) through `fn`, on the pool when it helps. The pool
// never changes results: every fn(i) is a pure function of i.
template <typename Fn>
void ForEach(ThreadPool* pool, size_t count, const Fn& fn) {
  if (pool != nullptr && pool->num_threads() > 1 && count > 1) {
    pool->ParallelFor(count, fn);
  } else {
    for (size_t i = 0; i < count; ++i) fn(i);
  }
}

template <typename Family>
const typename Family::Entry& FindEntry(std::string_view name) {
  const auto* entry = Family::Registry().Find(name);
  AQO_CHECK(entry != nullptr)
      << "unknown " << Family::kTitle << " optimizer: " << name;
  return *entry;
}

// The full cache key, in this order: family tag, fingerprint, canonical
// entry name, the family's result knobs, the adaptive knobs (the adaptive
// entry itself is never cached, but the key must still be injective over
// everything that shapes a result), seed.
template <typename Family>
Hash128 PlanCacheKey(const Hash128& fingerprint,
                     const typename Family::Entry& entry,
                     const typename Family::Options& options, uint64_t seed) {
  HashAccumulator acc(Family::kKeyTag);
  acc.Add(fingerprint.lo);
  acc.Add(fingerprint.hi);
  AddString(&acc, entry.name);
  Family::AddResultKnobs(&acc, options);
  AddString(&acc, options.adaptive.fallback);
  AddString(&acc, options.adaptive.candidates);
  acc.AddDouble(options.adaptive.quality_target);
  acc.Add(static_cast<uint64_t>(options.adaptive.k_neighbors));
  acc.Add(static_cast<uint64_t>(options.adaptive.min_trials));
  acc.Add(options.adaptive.seed);
  acc.Add(seed);
  return acc.Digest();
}

// The batch's knobs for one canonical instance.
template <typename Family>
typename Family::Options CanonicalKnobs(const BatchOptions& options,
                                        const typename Family::Canonical& c) {
  typename Family::Options knobs = Family::Knobs(options);
  Family::ToCanonicalKnobs(&knobs, c);
  return knobs;
}

}  // namespace

// Shared batch skeleton for both families (qo/family.h): canonicalize in
// parallel, probe serially, compute misses in parallel, replay logs +
// insert + resolve duplicates serially.
template <typename Family>
std::vector<BatchItem<typename Family::Result>> OptimizeBatch(
    const std::vector<typename Family::Instance>& instances,
    const BatchOptions& options) {
  const typename Family::Entry* entry = &FindEntry<Family>(options.optimizer);

  // Stateful entries (adaptive) must never be served from or inserted
  // into a PlanCache: their results depend on feedback-store state, so a
  // cached plan could go stale the moment the store learns. Gating here
  // also disables in-batch dedup for them — every duplicate runs and
  // records its own outcome, exactly what the cache-off baseline does.
  PlanCache* cache = entry->cacheable ? options.cache : nullptr;

  size_t count = instances.size();
  std::vector<typename Family::Canonical> canon(count);
  ForEach(options.pool, count,
          [&](size_t i) { canon[i] = Family::Canonicalize(instances[i]); });

  // Deterministic optimizers fold a fixed sentinel instead of the seed.
  const uint64_t key_seed =
      entry->deterministic ? kDeterministicSeed : options.seed;
  std::vector<Hash128> keys(count);
  for (size_t i = 0; i < count; ++i) {
    keys[i] = PlanCacheKey<Family>(canon[i].fingerprint, *entry,
                                   CanonicalKnobs<Family>(options, canon[i]),
                                   key_seed);
  }

  // One representative per distinct key, in first-occurrence order. With
  // no cache attached every instance is its own representative: the
  // cache-off path is the undeduplicated baseline the differential test
  // compares against (the results are bit-identical either way, since
  // duplicates share canonical bytes and RNG stream).
  std::vector<size_t> reps;
  std::vector<size_t> rep_slot(count);
  if (cache != nullptr) {
    std::unordered_map<Hash128, size_t, Hash128Hasher> slot_of;
    slot_of.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      auto [it, fresh] = slot_of.try_emplace(keys[i], reps.size());
      if (fresh) reps.push_back(i);
      rep_slot[i] = it->second;
    }
  } else {
    reps.resize(count);
    for (size_t i = 0; i < count; ++i) {
      reps[i] = i;
      rep_slot[i] = i;
    }
  }

  // Serial cache probes: deterministic hit/miss counter totals.
  std::vector<CachedPlan> plans(reps.size());
  std::vector<char> hit(reps.size(), 0);
  if (cache != nullptr) {
    for (size_t r = 0; r < reps.size(); ++r) {
      hit[r] = cache->Lookup(keys[reps[r]], &plans[r]) ? 1 : 0;
    }
  }

  // Batch-wide wall-clock deadline, observed cooperatively by every
  // computed item. Local to the batch; un-armed (deadline_ms <= 0) means
  // the token is never attached and nothing changes.
  CancelToken batch_cancel;
  if (options.deadline_ms > 0) batch_cancel.ArmDeadline(options.deadline_ms);

  // Compute the misses, each under its own run-log buffer and its own
  // fingerprint-derived RNG stream.
  //
  // Per-item isolation: a throwing item (real exception or the
  // "service.item" fault site, keyed by the item's instance index so the
  // ordinal is thread-schedule independent) is retried once with the same
  // RNG stream and a fresh run-log buffer; a second failure marks that
  // item kFailed (infeasible, no run record, never cached) and leaves
  // every sibling untouched. The pool propagates nothing: failures are
  // absorbed inside the lambda.
  static obs::Counter& retries =
      obs::Registry::Get().GetCounter("qo.service.retries");
  static obs::Counter& failures =
      obs::Registry::Get().GetCounter("qo.service.failures");
  std::vector<std::string> logs(reps.size());
  ForEach(options.pool, reps.size(), [&](size_t r) {
    if (hit[r]) return;
    const auto& c = canon[reps[r]];
    // One trace slice and one latency sample per computed item, covering
    // the whole attempt (retry included) — the latency a caller of this
    // item actually saw. Cache-hit and duplicate items get theirs in the
    // resolve loop, so slices sum to exactly the batch size.
    obs::TraceSpan slice("qo.service.item", "service");
    auto item_start = std::chrono::steady_clock::now();
    obs::InstanceShape shape{.family = std::string(Family::kName),
                             .kind = "batch",
                             .side = "",
                             .source = "",
                             .n = c.instance.NumRelations(),
                             .edges = c.instance.graph().NumEdges()};
    auto knobs = CanonicalKnobs<Family>(options, c);
    if (options.deadline_ms > 0) knobs.cancel = &batch_cancel;
    auto attempt = [&] {
      obs::RunLogBuffer buffer;
      Rng rng(MixSeed(options.seed, c.fingerprint.lo));
      FaultInjector::Get().MaybeThrow("service.item", reps[r]);
      auto result = obs::InstrumentedRun(
          std::string(Family::kName) + "." + entry->name, shape,
          [&] { return entry->run(c.instance, knobs, &rng); });
      plans[r] = ToPlan<Family>(result);
      logs[r] = buffer.Take();
    };
    if (!EntryDomainError(*entry, knobs, c.instance).empty()) {
      // Outside the entry's declared domain (or, for adaptive, its
      // fallback's) or the magnitude domain the optimizer would abort the
      // process or misreport: answer kFailed without running it (and,
      // like every failed item, never cache it).
      static obs::Counter& domain_rejects =
          obs::Registry::Get().GetCounter("qo.service.domain_rejects");
      domain_rejects.Increment();
      CachedPlan failed;
      failed.status = PlanStatus::kFailed;
      plans[r] = failed;
    } else {
      try {
        attempt();
      } catch (const std::exception&) {
        retries.Increment();
        try {
          attempt();
        } catch (const std::exception&) {
          failures.Increment();
          CachedPlan failed;
          failed.status = PlanStatus::kFailed;
          plans[r] = failed;
          logs[r].clear();
        }
      }
    }
    uint64_t item_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - item_start)
            .count());
    ItemHistogram(plans[r].status, /*cache_hit=*/false).Record(item_us);
    if (slice.armed()) {
      slice.Annotate("fingerprint", FingerprintHex(c.fingerprint));
      slice.Annotate("cache_hit", false);
      slice.Annotate("status", PlanStatusName(plans[r].status));
    }
  });

  // Replay buffered records in representative (= first occurrence) order,
  // then populate the cache serially in the same order so LRU state and
  // eviction decisions are scheduling-independent.
  if (obs::RunLog::Global() != nullptr) {
    for (const std::string& text : logs) {
      if (!text.empty()) obs::RunLog::Global()->WriteRaw(text);
    }
  }
  // Adaptive epilogue: fold this batch's pending feedback into committed
  // state, serially and after the log replay, so (a) every decision in
  // the batch saw the same pre-batch store regardless of scheduling, and
  // (b) the adaptive_commit record lands after every decision record it
  // covers — the order the replay tool reconstructs.
  if (entry->name == "adaptive") {
    CommitAdaptiveFeedback(Family::Knobs(options).adaptive);
  }
  if (cache != nullptr) {
    for (size_t r = 0; r < reps.size(); ++r) {
      if (hit[r]) continue;
      // Only deterministic outcomes are cacheable: complete and
      // budget-exhausted plans are pure functions of (instance, options,
      // seed). Deadline-cut plans depend on the wall clock and failed
      // items must stay retryable — neither may poison the cache.
      if (plans[r].status != PlanStatus::kComplete &&
          plans[r].status != PlanStatus::kBudgetExhausted) {
        continue;
      }
      cache->Insert(keys[reps[r]], plans[r]);
    }
  }

  // Resolve every instance from its representative's plan. In-batch
  // duplicates probe the cache (serially) so the hit counters reflect
  // the work the cache actually saved.
  std::vector<BatchItem<typename Family::Result>> out(count);
  for (size_t i = 0; i < count; ++i) {
    size_t r = rep_slot[i];
    // Computed misses already got their slice and latency sample in the
    // compute loop; everything else (probe hits and in-batch duplicates)
    // is served here, and its cost is the resolve itself.
    bool served_here = !(i == reps[r] && !hit[r]);
    obs::TraceSpan slice(served_here ? "qo.service.item" : "qo.service.resolve",
                         "service");
    auto item_start = std::chrono::steady_clock::now();
    bool from_cache = hit[r] != 0;
    if (cache != nullptr && i != reps[r]) {
      from_cache = cache->Lookup(keys[i], nullptr);
    }
    out[i].from_cache = from_cache;
    out[i].fingerprint = canon[i].fingerprint;
    FromPlan<Family>(plans[r], canon[i].from_canonical, &out[i].result);
    if (served_here) {
      uint64_t item_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - item_start)
              .count());
      ItemHistogram(plans[r].status, /*cache_hit=*/true).Record(item_us);
    }
    if (slice.armed()) {
      slice.Annotate("fingerprint", FingerprintHex(canon[i].fingerprint));
      slice.Annotate("cache_hit", from_cache);
      slice.Annotate("status", PlanStatusName(plans[r].status));
    }
  }
  return out;
}

template std::vector<QonBatchItem> OptimizeBatch<QonFamily>(
    const std::vector<QonInstance>&, const BatchOptions&);
template std::vector<QohBatchItem> OptimizeBatch<QohFamily>(
    const std::vector<QohInstance>&, const BatchOptions&);

std::vector<QonBatchItem> OptimizeQonBatch(
    const std::vector<QonInstance>& instances, const BatchOptions& options) {
  return OptimizeBatch<QonFamily>(instances, options);
}

std::vector<QohBatchItem> OptimizeQohBatch(
    const std::vector<QohInstance>& instances, const BatchOptions& options) {
  return OptimizeBatch<QohFamily>(instances, options);
}

Hash128 QonPlanCacheKey(const Hash128& fingerprint, std::string_view optimizer,
                        const OptimizerOptions& options, uint64_t seed) {
  return PlanCacheKey<QonFamily>(fingerprint, FindEntry<QonFamily>(optimizer),
                                 options, seed);
}

Hash128 QohPlanCacheKey(const Hash128& fingerprint, std::string_view optimizer,
                        const QohOptimizerOptions& options, uint64_t seed) {
  return PlanCacheKey<QohFamily>(fingerprint, FindEntry<QohFamily>(optimizer),
                                 options, seed);
}

}  // namespace aqo
