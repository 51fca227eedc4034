// aqo_perfbench — the C++ half of the repository benchmark (run.py is
// the other half: it builds this harness and aqo_serve, runs them, and
// turns the raw samples written here into the reported metrics).
//
//   aqo_perfbench serve --workload=serve_hot|serve_cold --seed=S
//       --seconds=T --server=<aqo_serve> --dir=<work dir> --out=<json>
//       [--trace=1]
//   aqo_perfbench gap --seed=S --seconds=T --out=<json> [--trace=1]
//   aqo_perfbench gap --setup-only=1
//
// serve drives one aqo_serve process over its stdin/stdout frame protocol
// as a closed loop with one client (one outstanding request): the server
// handles a pipe serially and its caller, a planner, blocks on the plan.
// Every response is then checked against in-process recomputation. With
// --trace=1 the same request stream is also replayed in-process through
// the public calls aqo_serve makes, with a span recorded around each call
// (spans live in memory and are written out at the end).
//
// gap produces the E1 (f_N) and E3 (f_H) gap tables from the reduction,
// graph and optimizer libraries, on a sweep pool, again and again for
// --seconds, checks every row, and checks that the tables are
// byte-identical on the sweep pool and at one thread.
//
// Nothing here is instrumentation inside the program: spans wrap calls
// into the libraries' public functions from this file only.

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "graph/generators.h"
#include "io/framing.h"
#include "io/serialization.h"
#include "qo/cost_eval.h"
#include "qo/fast_eval.h"
#include "qo/fingerprint.h"
#include "qo/optimizers.h"
#include "qo/persist.h"
#include "qo/plan_cache.h"
#include "qo/registry.h"
#include "qo/service.h"
#include "qo/workloads.h"
#include "reductions/clique_to_qoh.h"
#include "reductions/clique_to_qon.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace aqo;
using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// CLOCK_MONOTONIC in seconds: the clock Python's time.monotonic() reads,
// so run.py can time "process start until the first cell starts".
double MonotonicSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Tracing: spans (name, start, end, parent, request id) kept in memory.

class Tracer {
 public:
  struct Record {
    int64_t id = 0;
    int64_t parent = -1;
    int64_t request = 0;
    bool shadow = false;
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  bool armed() const { return armed_; }
  void set_armed(bool armed) { armed_ = armed; }
  double NowUs() const { return MicrosSince(origin_); }
  int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(Record record) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(record));
  }
  std::vector<Record> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(records_);
  }

 private:
  bool armed_ = false;
  Clock::time_point origin_ = Clock::now();
  std::atomic<int64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Record> records_;
};

// The innermost open span and request of this thread: spans opened
// without an explicit parent nest under it.
thread_local int64_t t_open_span = -1;
thread_local int64_t t_request = 0;

class Span {
 public:
  // parent < 0 nests under the thread's innermost open span. A shadow span
  // times a call made outside the parent's interval (see ReplayRequest).
  Span(Tracer* tracer, std::string name, int64_t parent = -1,
       bool shadow = false)
      : tracer_(tracer != nullptr && tracer->armed() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    record_.id = tracer_->NextId();
    record_.parent = parent >= 0 ? parent : t_open_span;
    record_.request = t_request;
    record_.shadow = shadow;
    record_.name = std::move(name);
    saved_open_ = t_open_span;
    t_open_span = record_.id;
    record_.start_us = tracer_->NowUs();
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    record_.end_us = tracer_->NowUs();
    t_open_span = saved_open_;
    tracer_->Add(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t id() const { return tracer_ == nullptr ? -1 : record_.id; }

 private:
  Tracer* tracer_;
  Tracer::Record record_;
  int64_t saved_open_ = -1;
};

// ---------------------------------------------------------------------------
// Minimal JSON output.

class JsonOut {
 public:
  void Num(const std::string& key, double v) { Field(key) << Fmt(v); }
  void Int(const std::string& key, int64_t v) { Field(key) << v; }
  void Str(const std::string& key, const std::string& v) {
    Field(key) << Quote(v);
  }
  void Nums(const std::string& key, const std::vector<double>& v) {
    std::ostream& os = Field(key);
    os << "[";
    for (size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << Fmt(v[i]);
    os << "]";
  }
  void Strs(const std::string& key, const std::vector<std::string>& v) {
    std::ostream& os = Field(key);
    os << "[";
    for (size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << Quote(v[i]);
    os << "]";
  }
  void Raw(const std::string& key, const std::string& json) {
    Field(key) << json;
  }
  std::string Done() const { return "{" + os_.str() + "}"; }

  static std::string Fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
  }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::ostream& Field(const std::string& key) {
    if (!first_) os_ << ",";
    first_ = false;
    os_ << Quote(key) << ":";
    return os_;
  }
  std::ostringstream os_;
  bool first_ = true;
};

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

void WriteSpans(const std::string& path, std::vector<Tracer::Record> spans) {
  std::ofstream out(path);
  out << "id\tparent\trequest\tshadow\tname\tstart_us\tend_us\n";
  for (const Tracer::Record& r : spans) {
    out << r.id << '\t' << r.parent << '\t' << r.request << '\t'
        << (r.shadow ? 1 : 0) << '\t' << r.name << '\t'
        << JsonOut::Fmt(r.start_us) << '\t' << JsonOut::Fmt(r.end_us) << '\n';
  }
}

// Failures of one run: a count plus the first few reasons.
class Failures {
 public:
  void Add(const std::string& reason) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (first_.size() < 20) first_.push_back(reason);
  }
  int64_t count() const { return count_; }
  const std::vector<std::string>& first() const { return first_; }

 private:
  std::mutex mu_;
  int64_t count_ = 0;
  std::vector<std::string> first_;
};

// ---------------------------------------------------------------------------
// Evaluator layers: exact (qo/cost_eval) and certified fast (qo/fast_eval)
// pricing of the swap neighbourhood of a returned plan, the neighbourhood
// ii walks. A fast price at least base + eps is a certified reject.

struct EvalTally {
  double exact_ns = 0.0;
  double fast_ns = 0.0;
  int64_t candidates = 0;
  int64_t rejects = 0;

  std::string Json() const {
    JsonOut j;
    j.Num("exact_ns", exact_ns);
    j.Num("fast_ns", fast_ns);
    j.Int("candidates", candidates);
    j.Int("rejects", rejects);
    return j.Done();
  }
};

void PriceNeighbourhood(const QonInstance& inst, const JoinSequence& plan,
                        EvalTally* tally) {
  int n = inst.NumRelations();
  if (n < 2 || static_cast<int>(plan.size()) != n) return;
  JoinSequence seq = plan;
  auto start = Clock::now();
  QonCostEvaluator exact(inst);
  exact.Cost(seq);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      std::swap(seq[i], seq[j]);
      exact.Cost(seq);
      std::swap(seq[i], seq[j]);
    }
  }
  tally->exact_ns += MicrosSince(start) * 1e3;
  start = Clock::now();
  QonNeighborhoodEvaluator fast(inst);
  fast.Load(plan);
  double limit = fast.BaseCostLog2() + fast.EpsLog2();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      double price = fast.PriceSwap(i, j);
      if (price >= limit) ++tally->rejects;
    }
  }
  tally->fast_ns += MicrosSince(start) * 1e3;
  tally->candidates += static_cast<int64_t>(n) * (n - 1) / 2;
}

void PriceNeighbourhood(const QohInstance& inst, const JoinSequence& plan,
                        EvalTally* tally) {
  int n = inst.NumRelations();
  if (n < 2 || static_cast<int>(plan.size()) != n) return;
  JoinSequence seq = plan;
  auto start = Clock::now();
  QohCostEvaluator exact(inst);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      std::swap(seq[i], seq[j]);
      exact.Evaluate(seq);
      std::swap(seq[i], seq[j]);
    }
  }
  tally->exact_ns += MicrosSince(start) * 1e3;
  start = Clock::now();
  QohNeighborhoodEvaluator fast(inst);
  fast.Load(plan);
  double limit = fast.BaseCostLog2() + fast.EpsLog2();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      bool feasible = false;
      double price = fast.PriceSwap(i, j, &feasible);
      if (!feasible || price >= limit) ++tally->rejects;
    }
  }
  tally->fast_ns += MicrosSince(start) * 1e3;
  tally->candidates += static_cast<int64_t>(n) * (n - 1) / 2;
}

// Registry runs per "<family>.<entry>": count and evaluations.
class RunTally {
 public:
  void Add(const std::string& key, uint64_t evaluations) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& [runs, evals] = by_entry_[key];
    ++runs;
    evals += evaluations;
  }
  std::string Json() const {
    JsonOut j;
    for (const auto& [key, value] : by_entry_) {
      JsonOut e;
      e.Int("runs", value.first);
      e.Int("evaluations", static_cast<int64_t>(value.second));
      j.Raw(key, e.Done());
    }
    return j.Done();
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::pair<int64_t, uint64_t>> by_entry_;
};

// ---------------------------------------------------------------------------
// Serve workloads. The program receives only the frames built here.

constexpr uint64_t kServerSeed = 1;
constexpr int kHotBases = 32;  // per family
// Set-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 31;
// Load on a 4-core machine: server threads plus the one client thread, or
// the gap sweep pool, stay within the cores. The response checks run on
// kCheckThreads after the server has exited. One server thread: a pool of
// two hands every DP layer to a worker and back, and on a shared VM those
// wake-ups wait on host steal (serve_cold's wall time doubled at 16-20%
// steal while its CPU time rose 7%); with one thread dp runs inline.
constexpr int kServerThreads = 1;
constexpr int kCheckThreads = 4;
constexpr int kGapThreads = 2;
// How long the timed client spins on a response before it blocks.
constexpr int kSpinUs = 1000;
// serve_cold n ranges: QO_N n in [kColdQonMinN, kColdQonMinN + kColdQonNs),
// QO_H n in [kColdQohMinN, kColdQohMinN + kColdQohNs).
constexpr int kColdQonMinN = 10;
constexpr int kColdQonNs = 7;
constexpr int kColdQohMinN = 12;
constexpr int kColdQohNs = 9;

// Zipf(s) over ranks 0..k-1 by inverse CDF.
class Zipf {
 public:
  Zipf(int k, double s) : cdf_(static_cast<size_t>(k)) {
    double total = 0.0;
    for (int i = 0; i < k; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  double Share(int rank) const {
    size_t r = static_cast<size_t>(rank);
    return cdf_[r] - (r == 0 ? 0.0 : cdf_[r - 1]);
  }
  int Pick(Rng* rng) const {
    double u = rng->UniformReal();
    for (size_t i = 0; i < cdf_.size(); ++i) {
      if (u < cdf_[i]) return static_cast<int>(i);
    }
    return static_cast<int>(cdf_.size()) - 1;
  }

 private:
  std::vector<double> cdf_;
};

struct Arrival {
  bool qoh = false;
  int base = -1;          // serve_hot: popularity rank of the base
  std::shared_ptr<const QonInstance> qon;    // the instance as sent
  std::shared_ptr<const QohInstance> qoh_instance;
  std::string optimizer;  // registry entry the request runs
  bool header_token = true;  // false: rely on the server default entry
};

class ServeWorkload {
 public:
  ServeWorkload(bool hot, uint64_t seed, Tracer* tracer)
      : hot_(hot),
        seed_(seed),
        tracer_(tracer),
        zipf_(kHotBases, 1.1),
        arrivals_(MixSeed(seed, 0x4c4f4144u)) {
    if (!hot_) return;
    // n by popularity rank is a fixed spread over 10..30, so the n-mix of
    // the stream (which sets its latency) does not move with the seed;
    // the seed draws the instances, the arrivals and the relabelings.
    for (int family = 0; family < 2; ++family) {
      for (int r = 0; r < kHotBases; ++r) {
        int n = 10 + (r * 13) % 21;
        Rng rng(MixSeed(seed, static_cast<uint64_t>(family * 1000 + r)));
        Span span(tracer_, "graph.generate");
        if (family == 0) {
          qon_bases_.push_back(RandomQonWorkload(n, &rng));
        } else {
          qoh_bases_.push_back(RandomQohWorkload(n, &rng, 0.3));
        }
      }
    }
  }

  // The next arrival in stream order. QO_N and QO_H alternate.
  Arrival Next() {
    size_t index = next_index_++;
    Arrival a;
    a.qoh = index % 2 == 1;
    if (hot_) {
      a.base = zipf_.Pick(&arrivals_);
      a.optimizer = "greedy";
      Rng rng(MixSeed(seed_ ^ 0x72656c6162656cULL, index));
      if (a.qoh) {
        a.qoh_instance = std::make_shared<QohInstance>(PermuteQohInstance(
            qoh_bases_[static_cast<size_t>(a.base)],
            Relabeling(qoh_bases_[static_cast<size_t>(a.base)].NumRelations(),
                       &rng)));
      } else {
        a.qon = std::make_shared<QonInstance>(PermuteQonInstance(
            qon_bases_[static_cast<size_t>(a.base)],
            Relabeling(qon_bases_[static_cast<size_t>(a.base)].NumRelations(),
                       &rng)));
      }
      return a;
    }
    // serve_cold: a fresh random instance per arrival; a canonical
    // fingerprint already sent is redrawn, so every request is a distinct
    // cache key (Zipf draws over a base pool cannot promise that).
    // n cycles through its range, so the n-mix (which sets the latency)
    // is the same for every seed; the seed draws the instances.
    size_t turn = index / 2;
    for (;;) {
      Rng rng(MixSeed(seed_ ^ 0x636f6c64ULL, stream_++));
      if (a.qoh) {
        int n = kColdQohMinN + static_cast<int>(turn % kColdQohNs);
        QohInstance inst = [&] {
          Span span(tracer_, "graph.generate");
          return RandomQohWorkload(n, &rng, 0.3);
        }();
        if (!seen_qoh_.insert(CanonicalizeQoh(inst).fingerprint).second) {
          continue;
        }
        a.qoh_instance = std::make_shared<QohInstance>(std::move(inst));
        a.optimizer = "ii";
      } else {
        int n = kColdQonMinN + static_cast<int>(turn % kColdQonNs);
        QonInstance inst = [&] {
          Span span(tracer_, "graph.generate");
          return RandomQonWorkload(n, &rng);
        }();
        if (!seen_qon_.insert(CanonicalizeQon(inst).fingerprint).second) {
          continue;
        }
        a.qon = std::make_shared<QonInstance>(std::move(inst));
        // dp is the server default; dp aborts the server above n = 24, so
        // n stays within its domain.
        a.optimizer = "dp";
        a.header_token = false;
      }
      return a;
    }
  }

  // Round trips fall into classes whose latency the seed does not move:
  // (family, base rank) on serve_hot, (family, n) on serve_cold. The
  // share is the class's expected fraction of the stream.
  int ClassOf(const Arrival& a) const {
    int family = a.qoh ? 1 : 0;
    if (hot_) return family * kHotBases + a.base;
    int n = a.qoh ? a.qoh_instance->NumRelations() : a.qon->NumRelations();
    return family * 64 + n;  // n < 64
  }
  double ClassShare(const Arrival& a) const {
    if (hot_) return 0.5 * zipf_.Share(a.base);
    return 0.5 / (a.qoh ? kColdQohNs : kColdQonNs);
  }

  // serve_hot set-up stream: every base once, in its own labels.
  std::vector<Arrival> WarmArrivals() const {
    std::vector<Arrival> out;
    for (size_t r = 0; r < qon_bases_.size(); ++r) {
      for (int family = 0; family < 2; ++family) {
        Arrival a;
        a.qoh = family == 1;
        a.base = static_cast<int>(r);
        a.optimizer = "greedy";
        if (a.qoh) {
          a.qoh_instance = std::make_shared<QohInstance>(qoh_bases_[r]);
        } else {
          a.qon = std::make_shared<QonInstance>(qon_bases_[r]);
        }
        out.push_back(std::move(a));
      }
    }
    return out;
  }

 private:
  static std::vector<int> Relabeling(int n, Rng* rng) {
    std::vector<int> perm(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<size_t>(v)] = v;
    rng->Shuffle(&perm);
    return perm;
  }

  bool hot_;
  uint64_t seed_;
  Tracer* tracer_;
  Zipf zipf_;
  Rng arrivals_;
  size_t next_index_ = 0;
  uint64_t stream_ = 0;
  std::vector<QonInstance> qon_bases_;
  std::vector<QohInstance> qoh_bases_;
  std::unordered_set<Hash128, Hash128Hasher> seen_qon_;
  std::unordered_set<Hash128, Hash128Hasher> seen_qoh_;
};

std::string Payload(const Arrival& a, const std::string& id) {
  std::ostringstream out;
  out << "req " << id;
  if (a.header_token) out << " optimizer=" << a.optimizer;
  out << "\n";
  if (a.qoh) {
    WriteQohInstance(*a.qoh_instance, out);
  } else {
    WriteQonInstance(*a.qon, out);
  }
  return out.str();
}

std::string RequestId(int64_t index) {
  return index < 0 ? "w" + std::to_string(-index - 1)
                   : "r" + std::to_string(index);
}

// ---------------------------------------------------------------------------
// The server's request configuration, rebuilt from the same knob readers
// aqo_serve uses, so in-process replays run exactly what the server runs.

struct ServeConfig {
  BatchOptions qon;
  BatchOptions qoh;

  ServeConfig() {
    const char* argv[] = {"aqo_serve"};
    bench::Flags flags(1, const_cast<char**>(argv));
    qon.qon = bench::ReadQonKnobs(flags);
    qon.seed = kServerSeed;
    qoh.qoh = bench::ReadQohKnobs(flags);
    qoh.seed = kServerSeed;
  }
};

std::string FormatG17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The response text aqo_serve writes for a served item (ServeOptimize).
template <typename Result>
std::string FormatResponse(const std::string& id, const char* family,
                           const Result& r, const std::vector<int>* starts) {
  std::ostringstream out;
  out << "ok " << id << " " << family << " feasible=" << (r.feasible ? 1 : 0)
      << " status=" << PlanStatusName(r.status)
      << " cost_log2=" << FormatG17(r.cost.Log2())
      << " evaluations=" << r.evaluations;
  if (r.feasible) {
    out << "\nseq";
    for (int v : r.sequence) out << " " << v;
    if (starts != nullptr) {
      out << "\npipelines";
      for (int v : *starts) out << " " << v;
    }
  }
  return out.str();
}

std::string ReplayBatch(const Arrival& a, const std::string& id,
                        const ServeConfig& config, PlanCache* cache) {
  if (a.qoh) {
    BatchOptions options = config.qoh;
    options.cache = cache;
    options.optimizer = a.optimizer;
    QohBatchItem item = OptimizeQohBatch({*a.qoh_instance}, options).front();
    return FormatResponse(id, "qoh", item.result,
                          &item.result.decomposition.starts);
  }
  BatchOptions options = config.qon;
  options.cache = cache;
  options.optimizer = a.optimizer;
  QonBatchItem item = OptimizeQonBatch({*a.qon}, options).front();
  return FormatResponse(id, "qon", item.result, nullptr);
}

// ---------------------------------------------------------------------------
// The server process, driven over a pipe pair.

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    CloseFds();
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::string& path, const std::vector<std::string>& args,
             const std::string& log_path) {
    int to_server[2];
    int from_server[2];
    if (::pipe(to_server) != 0) return false;
    if (::pipe(from_server) != 0) {
      ::close(to_server[0]);
      ::close(to_server[1]);
      return false;
    }
    // posix_spawn does not copy the harness's page tables as fork does,
    // so set-up times the server's start, not the size of the harness.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_server[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, from_server[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    for (int fd : {to_server[0], to_server[1], from_server[0],
                   from_server[1]}) {
      posix_spawn_file_actions_addclose(&actions, fd);
    }
    std::vector<std::string> strings = {path};
    strings.insert(strings.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : strings) argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    int spawned = ::posix_spawn(&pid, path.c_str(), &actions, nullptr,
                                argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(to_server[0]);
    ::close(from_server[1]);
    if (spawned != 0) {
      ::close(to_server[1]);
      ::close(from_server[0]);
      return false;
    }
    pid_ = pid;
    to_ = to_server[1];
    from_ = from_server[0];
    return true;
  }

  bool Send(const std::string& payload) { return WriteFrameFd(to_, payload); }
  bool Receive(std::string* payload) {
    return ReadFrameFd(from_, payload) == 1;
  }
  // Spins for up to kSpinUs until a response is readable, then blocks. A
  // hit round trip (~250 us) then does not include the client's wake-up
  // from a blocking read, which on a VM waits on the host; a miss (many
  // ms) leaves the core to the server after the first millisecond.
  bool AwaitResponse() {
    pollfd p{from_, POLLIN, 0};
    auto spin_until = Clock::now() + std::chrono::microseconds(kSpinUs);
    for (;;) {
      int ready = ::poll(&p, 1, Clock::now() < spin_until ? 0 : -1);
      if (ready > 0) return true;
      if (ready < 0 && errno != EINTR) return false;
    }
  }
  bool Call(const std::string& payload, std::string* response) {
    return Send(payload) && Receive(response);
  }

  // User plus system CPU time of all the server's threads so far, in
  // seconds (/proc/<pid>/stat); 0 when unreadable.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t paren = text.rfind(')');
    if (paren == std::string::npos) return 0.0;
    std::istringstream fields(text.substr(paren + 2));
    std::string skip;
    for (int i = 3; i < 14; ++i) fields >> skip;  // state .. cmajflt
    double utime = 0.0, stime = 0.0;
    fields >> utime >> stime;
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  // The server's peak RSS so far, in kB (VmHWM in /proc/<pid>/status);
  // 0 when unreadable. The rusage of a reaped child is not used: its
  // maxrss keeps the spawning process's RSS from before the exec.
  long PeakRssKb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
    }
    return 0;
  }

  // Closes the request pipe (a graceful shutdown: the server rotates its
  // snapshot) and reaps the process. Returns its exit code, or -1.
  int Finish() {
    if (pid_ <= 0) return -1;
    if (to_ >= 0) ::close(to_);
    to_ = -1;
    int status = 0;
    pid_t got = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    CloseFds();
    if (got < 0 || !WIFEXITED(status)) return -1;
    return WEXITSTATUS(status);
  }

 private:
  void CloseFds() {
    if (to_ >= 0) ::close(to_);
    if (from_ >= 0) ::close(from_);
    to_ = from_ = -1;
  }
  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
};

std::vector<std::string> ServerArgs(const std::string& cache_dir) {
  return {"--threads=" + std::to_string(kServerThreads),
          "--seed=" + std::to_string(kServerSeed), "--cache-dir=" + cache_dir};
}

// ---------------------------------------------------------------------------
// Response checks.

struct ParsedResponse {
  std::string verb, id, family;
  bool feasible = false;
  std::string cost_text;
  std::vector<int> seq;
  std::vector<int> pipelines;
};

bool ParseResponse(const std::string& text, ParsedResponse* out,
                   std::string* why) {
  std::istringstream lines(text);
  std::string head;
  std::getline(lines, head);
  std::istringstream h(head);
  h >> out->verb >> out->id >> out->family;
  if (out->verb != "ok") {
    *why = "not ok: " + head;
    return false;
  }
  for (std::string token; h >> token;) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    std::string key = token.substr(0, eq), value = token.substr(eq + 1);
    if (key == "feasible") out->feasible = value == "1";
    if (key == "cost_log2") out->cost_text = value;
  }
  for (std::string line; std::getline(lines, line);) {
    std::istringstream l(line);
    std::string tag;
    l >> tag;
    std::vector<int>* dst = tag == "seq"         ? &out->seq
                            : tag == "pipelines" ? &out->pipelines
                                                 : nullptr;
    if (dst == nullptr) {
      *why = "unexpected line: " + line;
      return false;
    }
    for (int v; l >> v;) dst->push_back(v);
  }
  return true;
}

bool IsPermutation(const std::vector<int>& seq, int n) {
  if (static_cast<int>(seq.size()) != n) return false;
  std::vector<char> seen(static_cast<size_t>(n), 0);
  for (int v : seq) {
    if (v < 0 || v >= n || seen[static_cast<size_t>(v)]) return false;
    seen[static_cast<size_t>(v)] = 1;
  }
  return true;
}

bool SameBits(double a, double b) {
  uint64_t x, y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

struct CheckCounts {
  std::atomic<int64_t> responses{0};
  std::atomic<int64_t> cost_bits{0};
  std::atomic<int64_t> replay_bytes{0};
  std::atomic<int64_t> dp_equal{0};
};

// Checks one response against the request that produced it. Returns ""
// when every check passes, else the first failing check. `cost_log2`
// receives the plan's cost when the response is a feasible plan.
std::string CheckResponse(const Arrival& a, const std::string& id,
                          const std::string& response,
                          const ServeConfig& config, PlanCache* replay_cache,
                          CheckCounts* counts, double* cost_log2,
                          bool* feasible) {
  if (response.empty()) return id + ": no response";
  ParsedResponse r;
  std::string why;
  if (!ParseResponse(response, &r, &why)) return id + ": " + why;
  counts->responses++;
  if (r.id != id) return id + ": response carries id " + r.id;
  if (r.family != (a.qoh ? "qoh" : "qon")) return id + ": wrong family";
  std::string expected = ReplayBatch(a, id, config, replay_cache);
  if (expected != response) {
    return id + ": response differs from in-process replay";
  }
  counts->replay_bytes++;
  *feasible = r.feasible;
  if (!r.feasible) return "";
  double cost = std::strtod(r.cost_text.c_str(), nullptr);
  *cost_log2 = cost;
  int n = a.qoh ? a.qoh_instance->NumRelations() : a.qon->NumRelations();
  if (!IsPermutation(r.seq, n)) return id + ": seq is not a permutation";
  double priced = 0.0;
  if (a.qoh) {
    PipelineDecomposition decomposition{r.pipelines};
    PipelineCostResult c = DecompositionCost(*a.qoh_instance, r.seq,
                                             decomposition);
    if (!c.feasible) return id + ": returned pipelines are infeasible";
    priced = c.cost.Log2();
  } else {
    priced = QonSequenceCost(*a.qon, r.seq).Log2();
  }
  if (!a.qoh && a.optimizer == "dp") {
    // dp reports its table value dp[full], summed in subset order, not
    // QonSequenceCost of its sequence; DpQonOptimizer itself only checks
    // the two agree to 1e-6 (relative, in log2). Its tie-breaking and
    // rounding follow the labels (the first two relations of a plan can
    // often swap at equal cost), so the reference is DpQonOptimizer on
    // the canonical relabeling the service optimizes, mapped back, held
    // bit for bit; QonSequenceCost is held to the optimizer's 1e-6.
    CanonicalQon canon = CanonicalizeQon(*a.qon);
    OptimizerResult dp = DpQonOptimizer(canon.instance, config.qon.qon);
    if (!SameBits(dp.cost.Log2(), cost) ||
        MapSequenceFromCanonical(dp.sequence, canon.from_canonical) != r.seq) {
      return id + ": dp response differs from DpQonOptimizer";
    }
    counts->dp_equal++;
    if (!LogDouble::FromLog2(priced).ApproxEquals(LogDouble::FromLog2(cost),
                                                  1e-6)) {
      return id + ": dp cost_log2 " + r.cost_text + " far from recomputed " +
             FormatG17(priced);
    }
    return "";
  }
  if (!SameBits(priced, cost)) {
    return id + ": cost_log2 " + r.cost_text + " != recomputed " +
           FormatG17(priced);
  }
  counts->cost_bits++;
  return "";
}

// ---------------------------------------------------------------------------
// In-process replay of the serve path: the public calls aqo_serve makes
// for one request, in serve order, each inside a span when traced.

struct ReplayState {
  explicit ReplayState(const std::string& dir) {
    std::filesystem::remove_all(dir);
    persist.dir = dir;
    persist.breaker.seed = kServerSeed;
  }
  // Recovers the store into a fresh cache (what aqo_serve does at start)
  // and writes every later insert through, the append inside a span.
  void Open(Tracer* tracer, bool time_recovery) {
    cache = std::make_unique<PlanCache>();
    store = std::make_unique<PlanStore>(persist);
    {
      Span span(time_recovery ? tracer : nullptr, "persist.recover");
      recovered_ok = store->LoadAndRecover(cache.get()).ok();
    }
    journal_at_open = JournalBytes();
    cache->SetInsertObserver(
        [this, tracer](const Hash128& key, const CachedPlan& plan) {
          {
            Span span(tracer, "persist.append");
            store->AppendEntry(key, plan);
          }
          ++appends;
        });
  }
  // Rotates a snapshot (as aqo_serve does on shutdown), which empties the
  // journal; its growth since Open is counted first.
  void Close() {
    uintmax_t bytes = JournalBytes();
    if (bytes > journal_at_open) {
      // A journal created after Open also holds its file header.
      journal_bytes += bytes - std::max(journal_at_open, kJournalHeaderBytes);
    }
    store->SaveSnapshot(*cache);
    store.reset();
    cache.reset();
  }
  uintmax_t JournalBytes() const {
    std::error_code ec;
    uintmax_t size = std::filesystem::file_size(store->JournalPath(), ec);
    return ec ? 0 : size;
  }

  // The persist file header (magic, version, kind): docs/persistence.md.
  static constexpr uintmax_t kJournalHeaderBytes = 16;

  PersistOptions persist;
  std::unique_ptr<PlanCache> cache;
  std::unique_ptr<PlanStore> store;
  bool recovered_ok = false;
  // Mirror of `cache` for the shadow decomposition of each batch.
  PlanCache shadow;
  // First canonical fingerprint seen per base, for dup_recall.
  std::map<std::pair<int, int>, Hash128> base_fingerprint;
  int64_t dup_sent = 0;
  int64_t dup_matched = 0;
  int64_t appends = 0;
  uintmax_t journal_at_open = 0;
  uintmax_t journal_bytes = 0;
  int64_t request_bytes = 0;  // stream requests' frame bytes
  int64_t requests = 0;
};

// The shadow decomposition of one batch: the same canonicalize, probe,
// run and insert calls the batch service makes internally, timed as
// spans under the batch span but made after it. The batch span's self
// time is its duration minus these spans.
template <typename Instance, typename Canonicalize, typename Key,
          typename Registry, typename Knobs, typename ToPlan>
void ShadowBatch(const Instance& inst, const std::string& family,
                 const std::string& optimizer, int64_t batch_span,
                 Tracer* tracer, ReplayState* state, RunTally* runs,
                 Canonicalize canonicalize, Key key_of,
                 const Registry& registry, const Knobs& knobs,
                 ToPlan to_plan, Hash128* fingerprint) {
  auto canon = [&] {
    Span span(tracer, "fingerprint.canon." + family, batch_span, true);
    return canonicalize(inst);
  }();
  *fingerprint = canon.fingerprint;
  Hash128 key = key_of(canon.fingerprint);
  CachedPlan plan;
  bool hit = false;
  {
    Span span(tracer, "plan_cache.probe", batch_span, true);
    hit = state->shadow.Lookup(key, &plan);
  }
  if (hit) return;
  const auto* entry = registry.Find(optimizer);
  Rng rng(MixSeed(kServerSeed, canon.fingerprint.lo));
  auto result = [&] {
    Span span(tracer, "registry.run." + family + "." + entry->name,
              batch_span, true);
    return entry->run(canon.instance, knobs, &rng);
  }();
  runs->Add(family + "." + entry->name, result.evaluations);
  Span span(tracer, "plan_cache.insert", batch_span, true);
  state->shadow.Insert(key, to_plan(result));
}

// Serves one request in-process. Returns the response payload and the
// time from frame read to frame write in *request_us; traced runs also
// run the shadow decomposition, after that interval.
std::string ReplayRequest(const Arrival& a, int64_t index,
                          const ServeConfig& config, ReplayState* state,
                          Tracer* tracer, RunTally* runs,
                          double* request_us = nullptr) {
  std::string id = RequestId(index);
  std::ostringstream framed;
  WriteFrame(framed, Payload(a, id));
  std::string frame_bytes = framed.str();
  if (index >= 0) {
    state->request_bytes += static_cast<int64_t>(frame_bytes.size());
    ++state->requests;
  }

  t_request = index;
  std::string response;
  int64_t batch_span = -1;
  auto start = Clock::now();
  {
    Span request(tracer, "request");
    std::string payload, error;
    {
      Span span(tracer, "io.frame_read");
      std::istringstream in(frame_bytes);
      ReadFrame(in, &payload, &error);
    }
    size_t eol = payload.find('\n');
    std::string body = payload.substr(eol + 1);
    if (a.qoh) {
      ParseResult<QohInstance> parsed = [&] {
        Span span(tracer, "io.parse.qoh");
        std::istringstream in(body);
        return ParseQohInstance(in);
      }();
      BatchOptions options = config.qoh;
      options.cache = state->cache.get();
      options.optimizer = a.optimizer;
      Span span(tracer, "service.batch.qoh");
      batch_span = span.id();
      QohBatchItem item = OptimizeQohBatch({*parsed.value}, options).front();
      response = FormatResponse(id, "qoh", item.result,
                                &item.result.decomposition.starts);
    } else {
      ParseResult<QonInstance> parsed = [&] {
        Span span(tracer, "io.parse.qon");
        std::istringstream in(body);
        return ParseQonInstance(in);
      }();
      BatchOptions options = config.qon;
      options.cache = state->cache.get();
      options.optimizer = a.optimizer;
      Span span(tracer, "service.batch.qon");
      batch_span = span.id();
      QonBatchItem item = OptimizeQonBatch({*parsed.value}, options).front();
      response = FormatResponse(id, "qon", item.result, nullptr);
    }
    Span span(tracer, "io.frame_write");
    std::ostringstream out;
    WriteFrame(out, response);
  }
  if (request_us != nullptr) *request_us = MicrosSince(start);
  if (!tracer->armed()) return response;

  Hash128 fingerprint;
  if (a.qoh) {
    ShadowBatch(
        *a.qoh_instance, "qoh", a.optimizer, batch_span, tracer, state, runs,
        [](const QohInstance& i) { return CanonicalizeQoh(i); },
        [&](const Hash128& fp) {
          return QohPlanCacheKey(fp, a.optimizer, config.qoh.qoh,
                                 kServerSeed);
        },
        QohOptimizerRegistry::Get(), config.qoh.qoh,
        [](const QohOptimizerResult& r) {
          return CachedPlan{r.feasible, r.sequence, r.decomposition.starts,
                            r.cost, r.evaluations, r.status};
        },
        &fingerprint);
  } else {
    ShadowBatch(
        *a.qon, "qon", a.optimizer, batch_span, tracer, state, runs,
        [](const QonInstance& i) { return CanonicalizeQon(i); },
        [&](const Hash128& fp) {
          return QonPlanCacheKey(fp, a.optimizer, config.qon.qon, kServerSeed);
        },
        OptimizerRegistry::Qon(), config.qon.qon,
        [](const OptimizerResult& r) {
          return CachedPlan{r.feasible, r.sequence, {}, r.cost, r.evaluations,
                            r.status};
        },
        &fingerprint);
  }
  if (a.base >= 0) {
    auto [it, fresh] =
        state->base_fingerprint.try_emplace({a.qoh ? 1 : 0, a.base},
                                            fingerprint);
    if (!fresh) {
      ++state->dup_sent;
      if (it->second == fingerprint) ++state->dup_matched;
    }
  }
  return response;
}

// ---------------------------------------------------------------------------
// serve

struct StreamResult {
  std::vector<Arrival> arrivals;
  std::vector<std::string> responses;  // "" = unanswered
  std::vector<double> rtt_us;
  double wall_s = 0.0;
  double server_cpu_s = 0.0;
  bool server_died = false;
};

// The closed loop: one outstanding request; the next request is built
// while the server works on the current one.
StreamResult RunStream(ServerProcess* server, ServeWorkload* workload,
                       double seconds) {
  StreamResult out;
  double cpu_start = server->CpuSeconds();
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration<double>(seconds);
  Arrival next = workload->Next();
  std::string next_payload = Payload(next, RequestId(0));
  for (int64_t i = 0; Clock::now() < deadline; ++i) {
    Arrival current = std::move(next);
    std::string payload = std::move(next_payload);
    auto sent = Clock::now();
    bool ok = server->Send(payload);
    next = workload->Next();
    next_payload = Payload(next, RequestId(i + 1));
    std::string response;
    ok = ok && server->AwaitResponse() && server->Receive(&response);
    double rtt = MicrosSince(sent);
    out.arrivals.push_back(std::move(current));
    out.responses.push_back(ok ? response : std::string());
    if (!ok) {
      out.server_died = true;
      break;
    }
    out.rtt_us.push_back(rtt);
  }
  out.wall_s = MicrosSince(start) * 1e-6;
  out.server_cpu_s = server->CpuSeconds() - cpu_start;
  return out;
}

int Serve(const bench::Flags& flags) {
  std::string workload_name = flags.GetString("workload");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  double seconds = flags.GetDouble("seconds", 10.0);
  std::string server_path = flags.GetString("server");
  std::string dir = flags.GetString("dir");
  std::string out_path = flags.GetString("out");
  bool trace = flags.GetInt("trace", 0) != 0;
  if ((workload_name != "serve_hot" && workload_name != "serve_cold") ||
      server_path.empty() || dir.empty() || out_path.empty()) {
    std::cerr << "serve: need --workload=serve_hot|serve_cold --server= "
                 "--dir= --out=\n";
    return 2;
  }
  bool hot = workload_name == "serve_hot";
  std::filesystem::create_directories(dir);
  std::string log_path = dir + "/server.log";
  std::string cache_dir = dir + "/cache";
  std::filesystem::remove_all(cache_dir);

  Tracer tracer;
  tracer.set_armed(trace);
  ServeWorkload workload(hot, seed, &tracer);
  ServeConfig config;
  Failures failures;
  JsonOut json;
  json.Str("workload", workload_name);

  // Set-up. serve_hot first warms the plan journal with every base; then
  // each repetition times exec of aqo_serve until its first answered ping
  // (LoadAndRecover of the journal included). The last server stays up.
  if (hot) {
    ServerProcess warm;
    if (!warm.Start(server_path, ServerArgs(cache_dir), log_path)) {
      std::cerr << "serve: cannot start " << server_path << "\n";
      return 1;
    }
    std::vector<Arrival> warm_arrivals = workload.WarmArrivals();
    for (size_t k = 0; k < warm_arrivals.size(); ++k) {
      std::string id = RequestId(-static_cast<int64_t>(k) - 1);
      std::string response;
      if (!warm.Call(Payload(warm_arrivals[k], id), &response) ||
          response.rfind("ok " + id + " ", 0) != 0) {
        std::cerr << "serve: warm-up request " << id << " failed: "
                  << response << "\n";
        return 1;
      }
    }
    if (warm.Finish() != 0) {
      std::cerr << "serve: warm-up server exited abnormally\n";
      return 1;
    }
  }
  std::vector<double> setup_s;
  auto server = std::make_unique<ServerProcess>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!hot) std::filesystem::remove_all(cache_dir);
    server = std::make_unique<ServerProcess>();
    auto start = Clock::now();
    std::string id = "s" + std::to_string(rep), pong;
    if (!server->Start(server_path, ServerArgs(cache_dir), log_path) ||
        !server->Call("ping " + id, &pong) ||
        pong.rfind("ok " + id + " pong", 0) != 0) {
      std::cerr << "serve: set-up ping failed\n";
      return 1;
    }
    setup_s.push_back(MicrosSince(start) * 1e-6);
    if (rep + 1 < kSetupReps && server->Finish() != 0) {
      std::cerr << "serve: set-up server exited abnormally\n";
      return 1;
    }
  }
  json.Nums("setup_s", setup_s);

  // The timed stream. A traced run gives a third of its time to the
  // server (the round-trip baseline) and the rest to the replays.
  StreamResult stream = RunStream(server.get(), &workload,
                                  trace ? seconds / 3.0 : seconds);
  int64_t cache_hits = -1, cache_misses = -1;
  if (!stream.server_died) {
    std::string health;
    if (server->Call("health h", &health)) {
      size_t at = health.find("\ncache ");
      if (at != std::string::npos) {
        std::istringstream fields(health.substr(at + 7));
        for (std::string token; fields >> token;) {
          if (token.rfind("hits=", 0) == 0) {
            cache_hits = std::stoll(token.substr(5));
          }
          if (token.rfind("misses=", 0) == 0) {
            cache_misses = std::stoll(token.substr(7));
          }
          if (token == "feedback") break;
        }
      }
    }
  }
  long maxrss_kb = server->PeakRssKb();
  int exit_code = server->Finish();
  if (exit_code != 0) {
    failures.Add("server exited with " + std::to_string(exit_code));
  }

  // Checks, after the window, on a small pool (the server is gone).
  size_t count = stream.arrivals.size();
  std::vector<std::string> problems(count);
  std::vector<double> plan_cost(count, 0.0);
  std::vector<char> plan_ok(count, 0);
  CheckCounts counts;
  PlanCache replay_cache;
  {
    ThreadPool pool(kCheckThreads);
    pool.ParallelFor(count, [&](size_t i) {
      bool feasible = false;
      problems[i] = CheckResponse(stream.arrivals[i],
                                  RequestId(static_cast<int64_t>(i)),
                                  stream.responses[i], config, &replay_cache,
                                  &counts, &plan_cost[i], &feasible);
      plan_ok[i] = problems[i].empty() && feasible;
    });
  }
  // Plan quality over distinct plans: a serve_hot base counts once, not
  // once per relabeled repeat, so a few popular bases do not set it.
  double plan_sum = 0.0;
  int64_t plans = 0;
  std::set<std::pair<int, int>> counted_bases;
  for (size_t i = 0; i < count; ++i) {
    const Arrival& a = stream.arrivals[i];
    if (!problems[i].empty()) failures.Add(problems[i]);
    if (!plan_ok[i]) continue;
    if (a.base >= 0 && !counted_bases.insert({a.qoh ? 1 : 0, a.base}).second) {
      continue;
    }
    plan_sum += plan_cost[i];
    ++plans;
  }

  std::vector<double> latency_class, class_share;
  for (size_t i = 0; i < stream.rtt_us.size(); ++i) {
    latency_class.push_back(workload.ClassOf(stream.arrivals[i]));
    class_share.push_back(workload.ClassShare(stream.arrivals[i]));
  }
  json.Nums("latency_us", stream.rtt_us);
  json.Nums("latency_class", latency_class);
  json.Nums("class_share", class_share);
  json.Num("wall_s", stream.wall_s);
  json.Num("cpu_s", stream.server_cpu_s);
  json.Int("completed", static_cast<int64_t>(stream.rtt_us.size()));
  json.Int("plans", plans);
  json.Num("plan_log2_sum", plan_sum);
  json.Int("peak_rss_kb", maxrss_kb);
  json.Int("cache_hits", cache_hits);
  json.Int("cache_misses", cache_misses);
  json.Int("check_responses", counts.responses);
  json.Int("check_replay_bytes", counts.replay_bytes);
  json.Int("check_cost_bits", counts.cost_bits);
  json.Int("check_dp_equal", counts.dp_equal);
  if (cache_hits < 0) failures.Add("health verb gave no cache stats");

  if (trace) {
    // Replays of the first `count` arrivals: untraced (per-request clock
    // only) for the overhead baseline, then traced with the shadow
    // decomposition. Each starts from the state the server started from.
    RunTally runs;
    // As in aqo_serve, QO_N optimizers get the server-sized pool (dp runs
    // its DP on it); results are the same bits at any size.
    ThreadPool replay_pool(kServerThreads);
    ServeConfig replay_config = config;
    replay_config.qon.qon.pool = &replay_pool;
    auto replay = [&](bool traced, std::vector<double>* rtt) {
      tracer.set_armed(traced);
      ReplayState state(dir + (traced ? "/replay_traced" : "/replay_plain"));
      if (hot) {
        // The journal warm-up, as the set-up above did it.
        state.Open(&tracer, false);
        std::vector<Arrival> warm = workload.WarmArrivals();
        for (size_t k = 0; k < warm.size(); ++k) {
          ReplayRequest(warm[k], -static_cast<int64_t>(k) - 1, replay_config,
                        &state, &tracer, &runs);
        }
        state.Close();
      }
      t_request = -1;  // set-up spans belong to no stream request
      state.Open(&tracer, true);
      if (!state.recovered_ok) failures.Add("in-process LoadAndRecover failed");
      for (size_t i = 0; i < count && !stream.responses[i].empty(); ++i) {
        double request_us = 0.0;
        std::string response =
            ReplayRequest(stream.arrivals[i], static_cast<int64_t>(i),
                          replay_config, &state, &tracer, &runs, &request_us);
        rtt->push_back(request_us);
        if (response != stream.responses[i]) {
          failures.Add(RequestId(static_cast<int64_t>(i)) +
                       ": in-process replay differs from the server");
        }
      }
      state.Close();
      if (traced) {
        json.Int("trace_appends", state.appends);
        json.Int("trace_journal_bytes",
                 static_cast<int64_t>(state.journal_bytes));
        json.Int("trace_request_bytes", state.request_bytes);
        json.Int("trace_requests", state.requests);
        json.Int("trace_dup_sent", state.dup_sent);
        json.Int("trace_dup_matched", state.dup_matched);
      }
    };
    std::vector<double> plain_us, traced_us;
    replay(false, &plain_us);
    replay(true, &traced_us);
    tracer.set_armed(false);
    json.Nums("replay_plain_us", plain_us);
    json.Nums("replay_traced_us", traced_us);
    json.Raw("trace_runs", runs.Json());

    // Evaluator layers on the swap neighbourhood of each distinct
    // instance's returned plan (the first 48 per family).
    EvalTally qon_eval, qoh_eval;
    std::set<std::pair<int, int>> seen_bases;
    int per_family[2] = {0, 0};
    for (size_t i = 0; i < count; ++i) {
      const Arrival& a = stream.arrivals[i];
      int fam = a.qoh ? 1 : 0;
      if (per_family[fam] >= 48) continue;
      if (a.base >= 0 && !seen_bases.insert({fam, a.base}).second) continue;
      ParsedResponse r;
      std::string why;
      if (!ParseResponse(stream.responses[i], &r, &why) || !r.feasible) {
        continue;
      }
      ++per_family[fam];
      if (a.qoh) {
        PriceNeighbourhood(*a.qoh_instance, r.seq, &qoh_eval);
      } else {
        PriceNeighbourhood(*a.qon, r.seq, &qon_eval);
      }
    }
    json.Raw("trace_eval_qon", qon_eval.Json());
    json.Raw("trace_eval_qoh", qoh_eval.Json());
    WriteSpans(out_path + ".spans.tsv", tracer.Take());
  }

  json.Int("attempted", static_cast<int64_t>(count));
  json.Int("failed", failures.count());
  json.Strs("failures", failures.first());
  std::filesystem::remove_all(cache_dir);
  std::filesystem::remove_all(dir + "/replay_plain");
  std::filesystem::remove_all(dir + "/replay_traced");
  if (!WriteText(out_path, json.Done())) return 1;
  return 0;
}

// ---------------------------------------------------------------------------
// gap: the E1 and E3 tables.

constexpr double kC = 2.0 / 3.0;
constexpr double kD = 1.0 / 3.0;
// E1 stays in the paper regime n >= 30/d = 90 and well below n = 150,
// whose ii cell alone takes ~20 s.
const std::vector<int> kE1Ns = {90, 96};
const std::vector<double> kE1Log2Alphas = {2.0, 8.0};
const std::vector<int> kE3Ns = {9, 12, 15, 18, 21};
// The cells' optimizer streams are those of qon_gap's and qoh_gap's
// default seeds, so the optimizer work a pass measures is the same for
// every --seed; the seed draws the YES-side planted-clique graphs of E1.
constexpr uint64_t kE1StreamSeed = 1;
constexpr uint64_t kE3StreamSeed = 3;

struct CellOut {
  std::vector<std::string> row;
  std::vector<double> plans;  // log2 cost of every plan the pool returned
  std::string problem;        // "" when the row's claims hold
  double cell_us = 0.0;
  // Kept for the evaluator layers in traced runs.
  std::shared_ptr<const QonInstance> qon;
  std::shared_ptr<const QohInstance> qoh;
  JoinSequence plan;
};

struct GapContext {
  Tracer* tracer;
  RunTally* runs;
  std::atomic<bool>* first_cell;  // setup-only: set at the first cell
  bool setup_only;
  bool keep_plans;
};

template <typename Registry, typename Instance, typename Knobs>
auto RunEntry(const Registry& registry, const std::string& family,
              const std::string& name, const Instance& inst,
              const Knobs& knobs, Rng* rng, GapContext* ctx) {
  auto result = [&] {
    Span span(ctx->tracer, "registry.run." + family + "." + name);
    return registry.Run(name, inst, knobs, rng);
  }();
  ctx->runs->Add(family + "." + name, result.evaluations);
  return result;
}

CellOut E1Cell(size_t index, Rng* rng, uint64_t seed, GapContext* ctx,
               const OptimizerOptions& knobs) {
  CellOut out;
  if (ctx->setup_only) {
    if (!ctx->first_cell->exchange(true)) {
      std::printf("first_cell %.9f\n", MonotonicSeconds());
      std::fflush(stdout);
    }
    return out;
  }
  auto start = Clock::now();
  t_request = static_cast<int64_t>(index);
  Span cell(ctx->tracer, "gap.cell");
  int n = kE1Ns[index / kE1Log2Alphas.size()];
  double log2_alpha = kE1Log2Alphas[index % kE1Log2Alphas.size()];
  QonGapParams params{.c = kC, .d = kD, .log2_alpha = log2_alpha};
  int s = static_cast<int>((kC - kD) * n);

  std::vector<int> planted;
  Graph yes_graph = [&] {
    Span span(ctx->tracer, "graph.generate");
    Rng graph_rng(MixSeed(seed, index));
    return CliqueClassGraph(n, 13, 1.0, static_cast<int>(kC * n), &graph_rng,
                            &planted);
  }();
  QonGapInstance yes = [&] {
    Span span(ctx->tracer, "reductions.reduce");
    return ReduceCliqueToQon(yes_graph, params);
  }();
  JoinSequence witness = CliqueFirstWitnessGreedy(yes.instance, planted);
  double witness_cost = QonSequenceCost(yes.instance, witness).Log2();
  OptimizerResult yes_greedy = RunEntry(OptimizerRegistry::Qon(), "qon",
                                        "greedy", yes.instance, knobs, rng,
                                        ctx);
  out.plans.push_back(yes_greedy.cost.Log2());

  Graph no_graph = [&] {
    Span span(ctx->tracer, "graph.generate");
    return CompleteMultipartite(n, s);
  }();
  QonGapInstance no = [&] {
    Span span(ctx->tracer, "reductions.reduce");
    return ReduceCliqueToQon(no_graph, params);
  }();
  double floor = 0.0, k = 0.0, k_no = 0.0;
  {
    Span span(ctx->tracer, "reductions.floor");
    floor = no.CertifiedLowerBound(s).Log2();
    k = yes.KBound().Log2();
    k_no = no.KBound().Log2();
  }
  double no_best = 0.0;
  bool have_best = false;
  for (const char* name : {"greedy", "ii"}) {
    OptimizerResult r = RunEntry(OptimizerRegistry::Qon(), "qon", name,
                                 no.instance, knobs, rng, ctx);
    if (!r.feasible) continue;
    out.plans.push_back(r.cost.Log2());
    no_best = have_best ? std::min(no_best, r.cost.Log2()) : r.cost.Log2();
    have_best = true;
    if (ctx->keep_plans && std::string(name) == "ii") {
      out.qon = std::make_shared<QonInstance>(no.instance);
      out.plan = r.sequence;
    }
  }
  if (witness_cost > k) {
    out.problem = "E1 n=" + std::to_string(n) + ": YES witness above K";
  } else if (!have_best || no_best < floor) {
    out.problem = "E1 n=" + std::to_string(n) + ": NO best below the floor";
  }
  out.row = {std::to_string(n), FormatDouble(log2_alpha, 3),
             FormatDouble(k, 6), FormatDouble(witness_cost - k, 4),
             FormatDouble(yes_greedy.cost.Log2() - k, 4),
             FormatDouble(floor - k_no, 4), FormatDouble(no_best - k_no, 4),
             FormatDouble(
                 (no_best - k_no - (witness_cost - k)) / log2_alpha, 4),
             FormatDouble(kD / 2.0 * n - 1.0, 4)};
  out.cell_us = MicrosSince(start);
  return out;
}

CellOut E3Cell(size_t index, Rng* rng, GapContext* ctx,
               const QohOptimizerOptions& knobs) {
  CellOut out;
  auto start = Clock::now();
  t_request = static_cast<int64_t>(1000 + index);
  Span cell(ctx->tracer, "gap.cell");
  int n = kE3Ns[index];
  QohGapParams params;  // alpha = 4, eta = 0.5
  auto best_of = [&](const QohGapInstance& gap) {
    double best = 1e300;
    for (const char* name : {"random", "greedy"}) {
      QohOptimizerResult r = RunEntry(QohOptimizerRegistry::Get(), "qoh", name,
                                      gap.instance, knobs, rng, ctx);
      if (!r.feasible) continue;
      out.plans.push_back(r.cost.Log2());
      if (r.cost.Log2() < best && ctx->keep_plans) {
        out.qoh = std::make_shared<QohInstance>(gap.instance);
        out.plan = r.sequence;
      }
      best = std::min(best, r.cost.Log2());
    }
    return best;
  };

  Graph yes_graph = [&] {
    Span span(ctx->tracer, "graph.generate");
    return Graph::Complete(n);
  }();
  QohGapInstance yes = [&] {
    Span span(ctx->tracer, "reductions.reduce");
    return ReduceTwoThirdsCliqueToQoh(yes_graph, params);
  }();
  std::vector<int> clique;
  for (int v = 0; v < 2 * n / 3; ++v) clique.push_back(v);
  QohWitnessPlan witness = QohYesWitness(yes, clique);
  PipelineCostResult wit_cost =
      DecompositionCost(yes.instance, witness.sequence, witness.decomposition);
  double yes_best = best_of(yes);
  yes_best =
      std::min(yes_best, wit_cost.feasible ? wit_cost.cost.Log2() : 1e300);

  Graph no_graph = [&] {
    Span span(ctx->tracer, "graph.generate");
    return CompleteMultipartite(n, 3);
  }();
  QohGapInstance no = [&] {
    Span span(ctx->tracer, "reductions.reduce");
    return ReduceTwoThirdsCliqueToQoh(no_graph, params);
  }();
  double epsilon = 2.0 - 9.0 / static_cast<double>(n);
  double no_best = best_of(no);
  double l = 0.0, l_no = 0.0, g = 0.0;
  {
    Span span(ctx->tracer, "reductions.floor");
    l = yes.LBound().Log2();
    l_no = no.LBound().Log2();
    g = no.GBound(epsilon).Log2();
  }
  if (!wit_cost.feasible || wit_cost.cost.Log2() > l) {
    out.problem = "E3 n=" + std::to_string(n) + ": YES witness above L";
  } else if (no_best >= 1e300) {
    out.problem = "E3 n=" + std::to_string(n) + ": no feasible NO plan";
  }
  out.row = {std::to_string(n), FormatDouble(l, 6),
             FormatDouble(wit_cost.cost.Log2() - l, 4),
             FormatDouble(yes_best - l, 4), FormatDouble(g - l_no, 4),
             FormatDouble(no_best - l_no, 4),
             FormatDouble(
                 (no_best - l_no - (yes_best - l)) / params.log2_alpha, 4),
             FormatDouble(static_cast<double>(n) * epsilon / 3.0 - 1.0, 4)};
  out.cell_us = MicrosSince(start);
  return out;
}

struct PassOut {
  std::string tables;
  std::vector<CellOut> cells;
  double wall_us = 0.0;
  double cpu_us = 0.0;
};

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

PassOut RunPass(ThreadPool* pool, uint64_t seed, GapContext* ctx) {
  PassOut out;
  double cpu_start = ProcessCpuSeconds();
  auto start = Clock::now();
  OptimizerOptions qon_knobs;
  qon_knobs.restarts = 2;
  QohOptimizerOptions qoh_knobs;
  qoh_knobs.samples = 200;
  qoh_knobs.sentinel_first = 0;  // pinned, as the reduction intends

  bench::SweepRunner e1(pool, kE1StreamSeed);
  std::vector<CellOut> e1_cells = e1.Map<CellOut>(
      kE1Ns.size() * kE1Log2Alphas.size(), [&](size_t i, Rng* rng) {
        return E1Cell(i, rng, seed, ctx, qon_knobs);
      });
  if (ctx->setup_only) return out;
  bench::SweepRunner e3(pool, kE3StreamSeed);
  std::vector<CellOut> e3_cells = e3.Map<CellOut>(
      kE3Ns.size(),
      [&](size_t i, Rng* rng) { return E3Cell(i, rng, ctx, qoh_knobs); });
  out.wall_us = MicrosSince(start);
  out.cpu_us = (ProcessCpuSeconds() - cpu_start) * 1e6;

  TextTable t1;
  t1.SetTitle("E1 / Theorem 9: QO_N YES/NO gap under f_N (costs as log2)");
  t1.SetHeader({"n", "lg a", "lg K", "YES wit-K", "YES greedy-K", "NO floor-K",
                "NO best-K", "gap (a units)", "paper (d/2)n-1"});
  for (const CellOut& c : e1_cells) t1.AddRow(c.row);
  TextTable t3;
  t3.SetTitle("E3 / Theorem 15: QO_H YES/NO gap under f_H (lg costs)");
  t3.SetHeader({"n", "lg L", "YES wit-L", "YES best-L", "NO G-L", "NO best-L",
                "gap (a units)", "paper n*eps/3-1"});
  for (const CellOut& c : e3_cells) t3.AddRow(c.row);
  std::ostringstream tables;
  t1.Print(tables);
  t3.Print(tables);
  out.tables = tables.str();
  out.cells = std::move(e1_cells);
  out.cells.insert(out.cells.end(), e3_cells.begin(), e3_cells.end());
  return out;
}

int Gap(const bench::Flags& flags) {
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  double seconds = flags.GetDouble("seconds", 10.0);
  bool trace = flags.GetInt("trace", 0) != 0;
  bool setup_only = flags.GetInt("setup-only", 0) != 0;
  std::string out_path = flags.GetString("out");
  if (!setup_only && out_path.empty()) {
    std::cerr << "gap: need --out=\n";
    return 2;
  }
  Tracer tracer;
  RunTally runs;
  std::atomic<bool> first_cell{false};
  GapContext ctx{&tracer, &runs, &first_cell, setup_only, false};
  ThreadPool pool(kGapThreads);
  if (setup_only) {
    RunPass(&pool, seed, &ctx);
    return 0;
  }

  Failures failures;
  std::vector<double> pass_us, pass_cpu_us, cell_us, plan_log2;
  std::vector<CellOut> kept;  // cells of the first traced pass
  std::string reference;
  // One pass is one attempted operation; it fails when any row's claim
  // fails or its tables differ from the first pass of the same seed.
  auto record = [&](PassOut pass, bool first) {
    std::string problem;
    for (const CellOut& c : pass.cells) {
      if (problem.empty()) problem = c.problem;
      cell_us.push_back(c.cell_us);
      if (first) {
        plan_log2.insert(plan_log2.end(), c.plans.begin(), c.plans.end());
      }
    }
    if (first) {
      reference = pass.tables;
    } else if (pass.tables != reference && problem.empty()) {
      problem = "tables differ between passes of one seed";
    }
    if (!problem.empty()) failures.Add(problem);
    if (ctx.keep_plans) kept = std::move(pass.cells);
    ctx.keep_plans = false;
  };
  auto window = [&](double budget_s, std::vector<double>* walls) {
    auto start = Clock::now();
    int passes = 0;
    do {
      PassOut pass = RunPass(&pool, seed, &ctx);
      walls->push_back(pass.wall_us);
      pass_cpu_us.push_back(pass.cpu_us);
      record(std::move(pass), reference.empty());
      ++passes;
    } while (MicrosSince(start) * 1e-6 < budget_s);
    return passes;
  };
  JsonOut json;
  json.Str("workload", "gap_tables");
  auto start = Clock::now();
  int attempted = 0;
  std::vector<double> plain_us;
  if (trace) {
    // Half the time untraced, as the baseline of the tracing overhead.
    attempted += window(seconds / 2.0, &plain_us);
    tracer.set_armed(true);
    ctx.keep_plans = true;
    cell_us.clear();
    pass_cpu_us.clear();
    attempted += window(seconds / 2.0, &pass_us);
    tracer.set_armed(false);
  } else {
    attempted += window(seconds, &pass_us);
  }
  double wall_s = MicrosSince(start) * 1e-6;

  // The same tables at one thread, byte for byte.
  {
    ThreadPool single(1);
    GapContext plain{&tracer, &runs, &first_cell, false, false};
    PassOut pass = RunPass(&single, seed, &plain);
    ++attempted;
    if (pass.tables != reference) {
      failures.Add("tables at one thread differ from " +
                   std::to_string(kGapThreads) + " threads");
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  json.Nums("latency_us", pass_us);
  json.Nums("cpu_us", pass_cpu_us);
  json.Nums("cell_us", cell_us);
  json.Num("wall_s", wall_s);
  json.Int("threads", kGapThreads);
  json.Int("completed", static_cast<int64_t>(pass_us.size() + plain_us.size()));
  json.Int("plans", static_cast<int64_t>(plan_log2.size()));
  double plan_sum = 0.0;
  for (double v : plan_log2) plan_sum += v;
  json.Num("plan_log2_sum", plan_sum);
  json.Int("peak_rss_kb", usage.ru_maxrss);
  json.Int("rows", static_cast<int64_t>(kE1Ns.size() * kE1Log2Alphas.size() +
                                        kE3Ns.size()));
  json.Str("tables", reference);
  if (trace) {
    json.Nums("replay_plain_us", plain_us);
    json.Nums("replay_traced_us", pass_us);
    json.Raw("trace_runs", runs.Json());
    // Evaluator layers on the kept plans: QO_N ii at n >= 90 (E1 NO
    // instances) and the best QO_H plan of each E3 cell.
    EvalTally qon_eval, qoh_eval;
    for (const CellOut& c : kept) {
      if (c.qon != nullptr) PriceNeighbourhood(*c.qon, c.plan, &qon_eval);
      if (c.qoh != nullptr) PriceNeighbourhood(*c.qoh, c.plan, &qoh_eval);
    }
    json.Raw("trace_eval_qon", qon_eval.Json());
    json.Raw("trace_eval_qoh", qoh_eval.Json());
    WriteSpans(out_path + ".spans.tsv", tracer.Take());
  }
  json.Int("attempted", attempted);
  json.Int("failed", failures.count());
  json.Strs("failures", failures.first());
  return WriteText(out_path, json.Done()) ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead server is a failed request
  if (argc < 2) {
    std::cerr << "usage: aqo_perfbench serve|gap --flag=value...\n";
    return 2;
  }
  std::string mode = argv[1];
  aqo::bench::Flags flags(argc - 1, argv + 1);
  if (mode == "serve") return perfbench::Serve(flags);
  if (mode == "gap") return perfbench::Gap(flags);
  std::cerr << "unknown mode '" << mode << "'\n";
  return 2;
}
