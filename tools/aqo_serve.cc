// aqo_serve — long-running optimization server over stdin/stdout.
//
// Speaks a length-prefixed frame protocol (io/framing.h): each request
// frame carries a small text payload —
//
//   req <id> [deadline_ms] [optimizer=<name>]
//   qon <n>            (or qoh — the full instance text, io/serialization.h)
//   ...
//
// The optional `optimizer=` token selects any registry entry (family-
// checked, aliases resolved) for that one request; `--optimizer=help`
// prints both registries' Describe() listings and exits. Any other
// header token that is not a number is answered with
// `err <id> bad request header: <token>`, and the family is read from
// the body's first non-comment line (io/request.h).
//
// and produces exactly one response frame per request:
//
//   ok <id> <family> feasible=<0|1> status=<status> cost_log2=<g17> evaluations=<n>
//   seq <v...>                       (feasible only)
//   pipelines <v...>                 (qoh, feasible only)
//
// or `err <id> <reason>` (parse failures, admission rejections, and
// `err <id> domain: <family> optimizer '<name>' accepts <domain>, got n=<n>`
// when the relation count is outside the entry's domain, or
// `err <id> domain: <family> sum of |log2 size| and |log2 selectivity| is
// <m>, above 1e+300` when the instance's numbers would overflow the cost
// folds — docs/robustness.md). Control frames: `ping <id>`,
// `health <id>` and `snapshot <id>` (forces a snapshot rotation).
//
// One handler serves both families: ServeOptimize is a template over the
// family traits (qo/family.h) covering parse result, --max-n, the
// `optimizer=` token, the load governor (whose estimate and degrade rule
// each registry entry declares, qo/overload.h), the domain gate, the
// batch service and the response format. The dispatch on the body's first
// token is the only per-family branch.
//
// Responses are a pure function of (instance, optimizer, knobs, seed):
// cache hits return bit-identical bytes to a fresh computation, so a
// warm restart reproduces a cold run's stdout byte-for-byte — the
// warm-start differential ctest and the CI crash-recovery smoke both
// assert exactly that. Anything nondeterministic (timings, hit counts)
// goes to stderr and the JSONL run-log only.
//
// Durability (docs/persistence.md): --cache-dir=<dir> arms plan-cache
// persistence. On startup the cache is warmed with
// PlanStore::LoadAndRecover (tolerating torn journal tails from a crash);
// every insert is written through to the journal; a graceful shutdown
// (stdin EOF, SIGTERM, SIGINT) rotates a fresh snapshot. SIGKILL loses
// nothing but the snapshot rotation — the journal already holds every
// insert. --feedback-dir=<dir> does the same for the adaptive feedback
// store (docs/adaptive.md): warm from <dir>/feedback.bin, append every
// committed record write-through.
//
// Admission control: --max-n= rejects instances above a relation-count
// ceiling before any optimization work; --request-deadline-ms= (or the
// per-request field) arms the Budget/CancelToken machinery so an
// overloaded item returns its best-so-far plan with status
// deadline_exceeded — such plans are never cached. --budget-evals= is the
// deterministic analogue and IS cacheable (docs/robustness.md).
//
// Telemetry: qo.serve.* counters, the qo.serve.request_us histogram,
// qo.persist.* for storage, plus --json-out/--trace-out/--latency-table
// from the shared harness flags.

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "io/framing.h"
#include "io/request.h"
#include "io/serialization.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/runlog.h"
#include "qo/adaptive.h"
#include "qo/overload.h"
#include "qo/persist.h"
#include "qo/plan_cache.h"
#include "qo/service.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace aqo {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

// Appends a double with enough digits to round-trip, so equal bits print
// equal bytes (the warm/cold differential depends on this).
void AppendG17(std::string* out, double v) {
  char buf[40];
  int len = std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf, static_cast<size_t>(len));
}

// Appends an integer in decimal, the bytes ostream << prints.
template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

// The payload of an `ok` response: the status line, then `seq` (and, for
// QO_H, `pipelines`) when the plan is feasible.
template <typename Result>
std::string FormatOk(const std::string& id, std::string_view family,
                     const Result& result, bool degraded,
                     const std::vector<int>* pipelines) {
  std::string out = "ok " + id + " ";
  out += family;
  out += " feasible=";
  out += result.feasible ? '1' : '0';
  out += " status=";
  out += PlanStatusName(result.status);
  out += " cost_log2=";
  AppendG17(&out, result.cost.Log2());
  out += " evaluations=";
  AppendInt(&out, result.evaluations);
  if (degraded) out += " degraded=1";
  if (result.feasible) {
    out += "\nseq";
    for (int v : result.sequence) {
      out += ' ';
      AppendInt(&out, v);
    }
    if (pipelines != nullptr) {
      out += "\npipelines";
      for (int v : *pipelines) {
        out += ' ';
        AppendInt(&out, v);
      }
    }
  }
  return out;
}

struct ServerConfig {
  BatchOptions qon_batch;
  BatchOptions qoh_batch;
  double default_deadline_ms = 0.0;
  int max_n = 0;  // 0 = unlimited
  int64_t snapshot_every = 0;  // optimize requests between rotations; 0 = off
};

// Emits one `overload_decision` JSONL record for a shed or degraded
// request (admits are the common case and stay silent).
void LogOverloadDecision(const std::string& id, const OverloadDecision& d,
                         const std::string& requested,
                         const std::string& effective) {
  if (obs::RunLog* log = obs::RunLog::Global()) {
    obs::JsonValue record = obs::JsonValue::Object();
    record["type"] = "overload_decision";
    record["id"] = id;
    record["tier"] = OverloadTierName(d.tier);
    record["pressure_permille"] = d.pressure_permille;
    record["optimizer"] = requested;
    if (d.tier == OverloadTier::kDegrade) record["effective"] = effective;
    record["reason"] = d.reason;
    log->Write(record);
  }
}

std::string AdmissionError(const std::string& id, int n, int max_n) {
  return "err " + id + " admission: n=" + std::to_string(n) +
         " exceeds --max-n=" + std::to_string(max_n);
}

// Domain admission (docs/robustness.md): the entry that would run — after
// any degrade — does not accept this relation count, so the request is
// answered without running anything.
std::string DomainError(const std::string& id, std::string_view family,
                        const std::string& reason) {
  static obs::Counter& domain_rejects =
      obs::Registry::Get().GetCounter("qo.serve.domain_rejects");
  domain_rejects.Increment();
  return "err " + id + " domain: " + std::string(family) + " " + reason;
}

// One optimize request of `Family` (qo/family.h): admits the parsed
// instance, runs a single-instance batch through the shared cache, formats
// the response payload. A non-empty `optimizer` (the per-request
// `optimizer=<name>` header token) overrides the configured entry for
// this request only.
template <typename Family>
std::string ServeOptimize(const std::string& id, double deadline_ms,
                          std::string_view optimizer,
                          const ParseResult<typename Family::Instance>& parsed,
                          const BatchOptions& configured,
                          const ServerConfig& config, PlanCache* cache,
                          ThreadPool* pool, LoadGovernor* governor) {
  static obs::Counter& rejects =
      obs::Registry::Get().GetCounter("qo.serve.admission_rejects");
  static obs::Counter& cache_hits =
      obs::Registry::Get().GetCounter("qo.serve.cache_hits");
  static obs::Counter& shed_counter =
      obs::Registry::Get().GetCounter("qo.serve.sheds");
  static obs::Counter& degrade_counter =
      obs::Registry::Get().GetCounter("qo.serve.degraded");
  if (!parsed.ok()) return "err " + id + " parse: " + parsed.error;
  const typename Family::Instance& inst = *parsed.value;
  const int n = inst.NumRelations();
  if (config.max_n > 0 && n > config.max_n) {
    rejects.Increment();
    return AdmissionError(id, n, config.max_n);
  }
  // The configured name was checked at startup; only a token can miss.
  const typename Family::Entry* entry = Family::Registry().Find(
      optimizer.empty() ? std::string_view(configured.optimizer) : optimizer);
  if (entry == nullptr) {
    rejects.Increment();
    return "err " + id + " optimizer: unknown " + std::string(Family::kTitle) +
           " entry '" + std::string(optimizer) + "'";
  }
  BatchOptions options = configured;
  options.cache = cache;
  options.pool = nullptr;  // single instance; optimizer-level pool below
  options.deadline_ms = deadline_ms;
  typename Family::Options& knobs = Family::Knobs(options);
  Family::SetPool(&knobs, pool);
  bool degraded = false;
  if (governor != nullptr && governor->armed()) {
    typename Family::Options degraded_knobs = knobs;
    const typename Family::Entry& fallback =
        Degrade(Family::Registry(), *entry, &degraded_knobs);
    OverloadDecision d =
        governor->OnArrival(EstimateCostUnits(*entry, knobs, n),
                            EstimateCostUnits(fallback, degraded_knobs, n));
    if (d.tier == OverloadTier::kShed) {
      shed_counter.Increment();
      LogOverloadDecision(id, d, entry->name, fallback.name);
      return "err " + id + " shed: " + d.reason;
    }
    if (d.tier == OverloadTier::kDegrade) {
      degrade_counter.Increment();
      LogOverloadDecision(id, d, entry->name, fallback.name);
      entry = &fallback;
      knobs = degraded_knobs;
      degraded = true;
    }
  }
  options.optimizer = entry->name;
  std::string domain = EntryDomainError(*entry, knobs, inst);
  if (!domain.empty()) return DomainError(id, Family::kName, domain);
  const auto items = OptimizeBatch<Family>({inst}, options);
  const auto& item = items.front();
  if (item.from_cache) cache_hits.Increment();
  return FormatOk(id, Family::kName, item.result, degraded,
                  Family::Pipelines(item.result));
}

// Startup check of a configured --optimizer / --qoh-optimizer name.
template <typename Family>
bool KnownOptimizer(const std::string& name) {
  if (Family::Registry().Find(name) != nullptr) return true;
  std::cerr << "error: unknown " << Family::kTitle << " optimizer '" << name
            << "'\n";
  return false;
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  bench::RunLogSession session(flags, "aqo_serve", /*default_seed=*/1);

  ServerConfig config;
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.qon_batch.optimizer = flags.GetString("optimizer", "dp");
  config.qon_batch.qon = bench::ReadQonKnobs(flags);
  config.qon_batch.seed = seed;
  config.qoh_batch.optimizer = flags.GetString("qoh-optimizer", "greedy");
  config.qoh_batch.qoh = bench::ReadQohKnobs(flags);
  config.qoh_batch.seed = seed;
  if (config.qon_batch.optimizer == "help" ||
      config.qoh_batch.optimizer == "help") {
    std::cout << OptimizerRegistry::Qon().Describe()
              << QohOptimizerRegistry::Get().Describe();
    return 0;
  }
  // Note: `--deadline-ms` (without the prefix) is the per-optimizer anytime
  // budget consumed by ReadQonKnobs above; this one arms the batch-level
  // wall-clock deadline default for requests that don't carry their own.
  config.default_deadline_ms = flags.GetDouble("request-deadline-ms", 0.0);
  config.max_n = static_cast<int>(flags.GetInt("max-n", 0));
  config.snapshot_every = flags.GetInt("snapshot-every", 0);

  // Load governor (qo/overload.h): disarmed unless a capacity is set, in
  // which case shed/degrade decisions are a pure function of the request
  // stream — two runs over the same stream shed the same requests.
  OverloadOptions overload;
  overload.queue_capacity = flags.GetDouble("overload-queue-cap", 0.0);
  overload.cost_capacity = flags.GetDouble("overload-cost-cap", 0.0);
  overload.drain_requests = flags.GetDouble("overload-drain-requests", 1.0);
  overload.drain_cost = flags.GetDouble("overload-drain-cost", 0.0);
  overload.degrade_threshold = flags.GetDouble("overload-degrade", 0.75);
  LoadGovernor governor(overload);

  // --fault=<site>@<ordinal>[x<times>] (or <site>@any) arms the
  // deterministic fault injector for chaos runs (tools/aqo_chaos.cc):
  // e.g. --fault=persist.append@3 tears the 4th journal append exactly as
  // tests/persist_crash_test.cc does in-process.
  std::string fault_spec = flags.GetString("fault");
  if (!fault_spec.empty()) {
    size_t at = fault_spec.find('@');
    if (at == std::string::npos) {
      std::cerr << "error: --fault expects <site>@<ordinal>[x<times>], got '"
                << fault_spec << "'\n";
      return 2;
    }
    std::string site = fault_spec.substr(0, at);
    std::string rest = fault_spec.substr(at + 1);
    int times = 1;
    size_t x = rest.find('x');
    if (x != std::string::npos) {
      times = std::atoi(rest.c_str() + x + 1);
      rest = rest.substr(0, x);
    }
    uint64_t ordinal = rest == "any"
                           ? FaultInjector::kAnyOrdinal
                           : std::strtoull(rest.c_str(), nullptr, 10);
    FaultInjector::Get().Arm(site, ordinal, times);
    std::cerr << "aqo_serve: armed fault " << site << "@" << rest
              << " x" << times << "\n";
  }
  if (!KnownOptimizer<QonFamily>(config.qon_batch.optimizer) ||
      !KnownOptimizer<QohFamily>(config.qoh_batch.optimizer)) {
    return 2;
  }

  PlanCacheOptions cache_options;
  cache_options.byte_budget =
      static_cast<size_t>(flags.GetInt("plan-cache-mb", 64)) << 20;
  cache_options.shards =
      static_cast<int>(flags.GetInt("plan-cache-shards", 16));
  PlanCache cache(cache_options);
  cache.LogConfig();

  ThreadPool pool(flags.Threads());

  // Durable state: recover, then write through.
  std::unique_ptr<PlanStore> store;
  std::string cache_dir = flags.GetString("cache-dir");
  if (!cache_dir.empty()) {
    PersistOptions persist_options;
    persist_options.dir = cache_dir;
    persist_options.fsync = flags.GetInt("fsync", 1) != 0;
    // Circuit breaker (docs/robustness.md): --persist-breaker=0 restores
    // the legacy first-failure latch; backoff counts refused writes.
    persist_options.breaker.enabled =
        flags.GetInt("persist-breaker", 1) != 0;
    persist_options.breaker.backoff_base = static_cast<uint64_t>(
        flags.GetInt("persist-backoff", 8));
    persist_options.breaker.backoff_max = static_cast<uint64_t>(
        flags.GetInt("persist-backoff-max", 1024));
    persist_options.breaker.seed = seed;
    store = std::make_unique<PlanStore>(persist_options);
    ParseResult<RecoveryStats> recovered = store->LoadAndRecover(&cache);
    if (!recovered.ok()) {
      std::cerr << "error: " << recovered.error << "\n";
      return 1;
    }
    std::cerr << "aqo_serve: recovered " << recovered.value->entries_loaded
              << " entries (snapshot " << recovered.value->snapshot_entries
              << ", journal " << recovered.value->log_entries << ") in "
              << recovered.value->recover_us << " us";
    if (recovered.value->torn_tail) std::cerr << " [torn journal tail]";
    if (!recovered.value->damage.empty()) {
      std::cerr << " [damage: " << recovered.value->damage << "]";
    }
    std::cerr << "\n";
    store->AttachTo(&cache);
  }

  // Adaptive feedback durability: warm the default store from
  // <dir>/feedback.bin (salvaging up to any damage point), then make
  // every commit append write-through. The batch service commits after
  // each adaptive request, so learning survives restarts.
  std::string feedback_dir = flags.GetString("feedback-dir");
  if (!feedback_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(feedback_dir, ec);
    std::string feedback_path = feedback_dir + "/feedback.bin";
    FeedbackStore& feedback = FeedbackStore::Default();
    FeedbackLoadStats loaded = feedback.LoadFrom(feedback_path);
    std::cerr << "aqo_serve: feedback store loaded " << loaded.records
              << " records (" << loaded.duplicates << " duplicates)";
    if (loaded.torn_tail) std::cerr << " [torn tail]";
    if (!loaded.damage.empty()) {
      std::cerr << " [damage: " << loaded.damage << "]";
    }
    std::cerr << "\n";
    std::string attach_error;
    if (!feedback.AttachFile(feedback_path, &attach_error)) {
      std::cerr << "error: --feedback-dir: " << attach_error << "\n";
      return 1;
    }
  }

  // SIGTERM/SIGINT end the serve loop for a graceful snapshot; no
  // SA_RESTART, so a blocking stdin read returns early.
  struct sigaction sa = {};
  sa.sa_handler = HandleStop;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  static obs::Counter& requests =
      obs::Registry::Get().GetCounter("qo.serve.requests");
  static obs::Counter& errors =
      obs::Registry::Get().GetCounter("qo.serve.errors");
  static obs::Histogram& request_us =
      obs::Registry::Get().GetHistogram("qo.serve.request_us");

  uint64_t served = 0;
  int64_t since_snapshot = 0;
  bool clean = true;
  std::string payload;
  std::string frame_error;
  // Corruption in the byte stream must not poison the session: the
  // reader resynchronizes on the next frame whose payload starts with a
  // known protocol verb, and the skipped garbage is answered with one
  // `err ?` frame so the client knows bytes were dropped.
  FrameReader frames(std::cin, [](const std::string& p) {
    return p.rfind("req ", 0) == 0 || p.rfind("ping ", 0) == 0 ||
           p.rfind("health ", 0) == 0 || p.rfind("snapshot ", 0) == 0;
  });
  while (g_stop == 0) {
    FrameRead read = frames.Next(&payload, &frame_error);
    if (read == FrameRead::kEof) break;
    if (read == FrameRead::kError) {
      if (g_stop != 0) break;  // interrupted mid-read by a stop signal
      std::cerr << "error: <stdin>: " << frame_error << "\n";
      clean = false;
      break;
    }
    if (frames.resynced()) {
      static obs::Counter& resyncs =
          obs::Registry::Get().GetCounter("qo.serve.frame_resyncs");
      resyncs.Increment();
      errors.Increment();
      std::ostringstream garbage;
      garbage << "err ? parse: resynchronized after "
              << frames.last_skipped() << " bytes of frame garbage";
      WriteFrame(std::cout, garbage.str());
      std::cout.flush();
    }
    obs::ScopedLatencyTimer timer(request_us);
    requests.Increment();
    // First line: "<verb> <id> [token...]"; the rest is the body
    // (io/request.h).
    RequestHeader header = ParseRequestHeader(payload);
    const std::string_view verb = header.verb;
    const std::string id(header.id);
    std::string response;
    if (verb == "req" && !id.empty()) {
      if (!header.error.empty()) {
        response = "err " + id + " " + header.error;
      } else {
        const double deadline_ms =
            header.deadline_ms.value_or(config.default_deadline_ms);
        // The one per-family branch: the body's first line picks the
        // parser and the family the request runs under.
        if (header.family == "qon") {
          response = ServeOptimize<QonFamily>(
              id, deadline_ms, header.optimizer,
              ParseQonInstance(header.body), config.qon_batch, config,
              &cache, &pool, &governor);
        } else if (header.family == "qoh") {
          response = ServeOptimize<QohFamily>(
              id, deadline_ms, header.optimizer,
              ParseQohInstance(header.body), config.qoh_batch, config,
              &cache, &pool, &governor);
        } else {
          response = "err " + id + " parse: unknown instance family '" +
                     std::string(header.family) + "' (expected qon or qoh)";
        }
      }
      ++served;
      ++since_snapshot;
    } else if (verb == "ping" && !id.empty()) {
      // Extended health ping: everything here is a deterministic
      // function of the request stream (+ fault schedule), so pinged
      // runs still diff byte-identically.
      governor.OnControlFrame();
      std::ostringstream pong;
      pong << "ok " << id << " pong pressure="
           << governor.PressurePermille() << " sheds=" << governor.sheds()
           << " degrades=" << governor.degrades() << " persist="
           << (store != nullptr ? PersistHealthName(store->health())
                                : "none")
           << " feedback=" << (feedback_dir.empty() ? "none" : "attached");
      response = pong.str();
    } else if (verb == "health" && !id.empty()) {
      governor.OnControlFrame();
      PlanCache::Stats stats = cache.GetStats();
      std::ostringstream health;
      health << "ok " << id << " health\n"
             << "governor armed=" << (governor.armed() ? 1 : 0)
             << " pressure=" << governor.PressurePermille()
             << " admits=" << governor.admits()
             << " degrades=" << governor.degrades()
             << " sheds=" << governor.sheds() << "\n"
             << "persist ";
      if (store != nullptr) {
        health << PersistHealthName(store->health())
               << " trips=" << store->breaker_trips()
               << " probes=" << store->breaker_probes()
               << " reopens=" << store->breaker_reopens();
      } else {
        health << "none";
      }
      health << "\ncache entries=" << stats.entries
             << " bytes=" << stats.bytes << " hits=" << stats.hits
             << " misses=" << stats.misses << "\nfeedback "
             << (feedback_dir.empty() ? "none" : "attached");
      response = health.str();
    } else if (verb == "snapshot" && !id.empty()) {
      governor.OnControlFrame();
      if (store == nullptr) {
        response = "err " + id + " snapshot: no --cache-dir configured";
      } else if (store->SaveSnapshot(cache)) {
        response = "ok " + id + " snapshot";
      } else {
        response = "err " + id + " snapshot: " + store->error();
      }
    } else {
      response = "err ? bad request header: " + std::string(header.head);
    }
    if (response.compare(0, 4, "err ") == 0) errors.Increment();
    WriteFrame(std::cout, response);
    std::cout.flush();
    if (store != nullptr && config.snapshot_every > 0 &&
        since_snapshot >= config.snapshot_every) {
      if (store->SaveSnapshot(cache)) since_snapshot = 0;
    }
  }

  // Graceful shutdown: rotate a snapshot so the next start recovers from
  // one file instead of replaying the whole journal.
  if (store != nullptr) {
    if (!store->SaveSnapshot(cache)) {
      std::cerr << "warning: shutdown snapshot failed: " << store->error()
                << "\n";
    }
  }
  if (governor.armed()) {
    if (obs::RunLog* log = obs::RunLog::Global()) {
      obs::JsonValue record = obs::JsonValue::Object();
      record["type"] = "overload_summary";
      record["admits"] = governor.admits();
      record["degrades"] = governor.degrades();
      record["sheds"] = governor.sheds();
      record["final_pressure_permille"] = governor.PressurePermille();
      log->Write(record);
    }
    std::cerr << "aqo_serve: governor admits=" << governor.admits()
              << " degrades=" << governor.degrades()
              << " sheds=" << governor.sheds() << "\n";
  }
  cache.LogStats();
  PlanCache::Stats stats = cache.GetStats();
  std::cerr << "aqo_serve: served " << served << " requests"
            << (g_stop != 0 ? " (stopped by signal)" : "") << "; cache hits="
            << stats.hits << " misses=" << stats.misses
            << " entries=" << stats.entries << " bytes=" << stats.bytes
            << "\n";
  return clean ? 0 : 1;
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) { return aqo::Main(argc, argv); }
