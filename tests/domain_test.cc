// Domain admission: every registry entry declares the relation counts it
// accepts (OptimizerEntryT::min_n/max_n), and no front-end runs an entry
// outside them — the optimizers CHECK-fail there, which would take a
// whole server down with one well-formed request.
//
// Every entry of both registries is driven at n = 1 and (when bounded) at
// n = max_n + 1:
//   * through the batch service — the item comes back kFailed, infeasible,
//     and is never cached;
//   * through a real aqo_serve process — each request is answered with
//     `err <id> domain: ...`, and the server still answers a ping and an
//     in-domain request afterwards and exits cleanly.
//
// `adaptive` is also driven with `dp` as its fallback (the item fails)
// and as one of its candidates (dp is dropped and the item runs).
//
// The magnitude domain (kMaxInstanceLog2Magnitude): instances whose log2
// sizes and selectivities sum past the bound are refused the same two
// ways, every entry runs to a finite plan just inside it, and the
// library-built gap instances of E1, E3, E5 and E6 are far inside it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "reductions/clique_to_qoh.h"
#include "reductions/clique_to_qon.h"
#include "reductions/sparse.h"
#include "io/framing.h"
#include "io/serialization.h"
#include "qo/adaptive.h"
#include "qo/plan_cache.h"
#include "qo/registry.h"
#include "qo/service.h"
#include "util/random.h"

namespace aqo {
namespace {

QonInstance QonOfSize(int n) {
  Rng rng(static_cast<uint64_t>(n));
  Graph g = Gnp(n, 0.3, &rng);
  std::vector<LogDouble> sizes;
  for (int i = 0; i < n; ++i) {
    sizes.push_back(LogDouble::FromLog2(
        static_cast<double>(rng.UniformInt(2, 20))));
  }
  QonInstance inst(g, std::move(sizes));
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::FromLog2(-1.0));
  }
  return inst;
}

QohInstance QohOfSize(int n) {
  Rng rng(static_cast<uint64_t>(n) + 1000);
  Graph g = Gnp(n, 0.3, &rng);
  std::vector<LogDouble> sizes(static_cast<size_t>(n),
                               LogDouble::FromLinear(4096.0));
  QohInstance inst(g, std::move(sizes), 8192.0);
  for (const auto& [u, v] : g.Edges()) {
    inst.SetSelectivity(u, v, LogDouble::FromLinear(0.25));
  }
  return inst;
}

// The out-of-domain relation counts of an entry: n = 1, and max_n + 1
// when the entry is bounded.
template <typename Entry>
std::vector<int> OutOfDomainSizes(const Entry& entry) {
  std::vector<int> sizes = {entry.min_n - 1};
  if (entry.max_n != std::numeric_limits<int>::max()) {
    sizes.push_back(entry.max_n + 1);
  }
  return sizes;
}

TEST(Domain, DeclaredLimits) {
  const OptimizerRegistry& qon = OptimizerRegistry::Qon();
  for (const std::string& name : qon.Names()) {
    EXPECT_EQ(qon.Find(name)->min_n, 2) << name;
  }
  EXPECT_EQ(qon.Find("dp")->max_n, 24);
  EXPECT_EQ(qon.Find("cout")->max_n, 24);
  EXPECT_EQ(qon.Find("exhaustive")->max_n, 10);
  EXPECT_EQ(qon.Find("bnb")->max_n, 62);
  EXPECT_FALSE(qon.Find("dp")->InDomain(1));
  EXPECT_TRUE(qon.Find("dp")->InDomain(24));
  EXPECT_FALSE(qon.Find("dp")->InDomain(25));
  EXPECT_TRUE(qon.Find("greedy")->InDomain(1000));
  const QohOptimizerRegistry& qoh = QohOptimizerRegistry::Get();
  for (const std::string& name : qoh.Names()) {
    EXPECT_EQ(qoh.Find(name)->min_n, 2) << name;
  }
  EXPECT_EQ(qoh.Find("exhaustive")->max_n, 9);
  EXPECT_EQ(qon.Find("dp")->DomainError(25),
            "optimizer 'dp' accepts 2 <= n <= 24, got n=25");
  EXPECT_EQ(qon.Find("greedy")->DomainError(1),
            "optimizer 'greedy' accepts n >= 2, got n=1");
  std::string listing = qon.Describe();
  EXPECT_NE(listing.find("[2 <= n <= 24]"), std::string::npos) << listing;
  EXPECT_NE(listing.find("[n >= 2]"), std::string::npos) << listing;
}

TEST(Domain, ServiceFailsOutOfDomainItemsWithoutCaching) {
  for (const std::string& name : OptimizerRegistry::Qon().Names()) {
    const QonOptimizerEntry& entry = *OptimizerRegistry::Qon().Find(name);
    for (int n : OutOfDomainSizes(entry)) {
      PlanCache cache;
      BatchOptions options;
      options.optimizer = name;
      options.cache = &cache;
      std::vector<QonBatchItem> items =
          OptimizeQonBatch({QonOfSize(n)}, options);
      ASSERT_EQ(items.size(), 1u);
      EXPECT_EQ(items[0].result.status, PlanStatus::kFailed)
          << name << " n=" << n;
      EXPECT_FALSE(items[0].result.feasible) << name << " n=" << n;
      EXPECT_EQ(cache.GetStats().entries, 0u) << name << " n=" << n;
    }
    // The smallest in-domain instance still runs.
    BatchOptions options;
    options.optimizer = name;
    std::vector<QonBatchItem> items =
        OptimizeQonBatch({QonOfSize(entry.min_n)}, options);
    EXPECT_NE(items[0].result.status, PlanStatus::kFailed) << name;
  }
  for (const std::string& name : QohOptimizerRegistry::Get().Names()) {
    const QohOptimizerEntry& entry = *QohOptimizerRegistry::Get().Find(name);
    for (int n : OutOfDomainSizes(entry)) {
      PlanCache cache;
      BatchOptions options;
      options.optimizer = name;
      options.cache = &cache;
      std::vector<QohBatchItem> items =
          OptimizeQohBatch({QohOfSize(n)}, options);
      ASSERT_EQ(items.size(), 1u);
      EXPECT_EQ(items[0].result.status, PlanStatus::kFailed)
          << name << " n=" << n;
      EXPECT_FALSE(items[0].result.feasible) << name << " n=" << n;
      EXPECT_EQ(cache.GetStats().entries, 0u) << name << " n=" << n;
    }
    BatchOptions options;
    options.optimizer = name;
    std::vector<QohBatchItem> items =
        OptimizeQohBatch({QohOfSize(entry.min_n)}, options);
    EXPECT_NE(items[0].result.status, PlanStatus::kFailed) << name;
  }
}

std::string QohToString(const QohInstance& inst) {
  std::ostringstream os;
  WriteQohInstance(inst, os);
  return os.str();
}

// (request id, expected response prefix) in stream order.
using Expectations = std::vector<std::pair<std::string, std::string>>;

// Runs a real aqo_serve process with `flags` over `requests` (one frame
// each, in order; `tag` names the temp files) and checks each
// response starts with its expected prefix.
void ExpectServeResponses(const std::string& flags, const std::string& tag,
                          const std::vector<std::string>& requests,
                          const Expectations& expected) {
  std::string dir = ::testing::TempDir();
  std::string in_path = dir + "/" + tag + "_requests.bin";
  std::string out_path = dir + "/" + tag + "_responses.bin";
  {
    std::ofstream in(in_path, std::ios::binary);
    for (const std::string& request : requests) WriteFrame(in, request);
  }
  std::string command = std::string(AQO_SERVE_PATH) + " " + flags + " < " +
                        in_path + " > " + out_path + " 2> /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  std::ifstream out(out_path, std::ios::binary);
  std::vector<std::string> responses;
  std::string payload, error;
  while (ReadFrame(out, &payload, &error) == FrameRead::kFrame) {
    responses.push_back(payload);
  }
  ASSERT_EQ(responses.size(), expected.size()) << error;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(responses[i].rfind(expected[i].second, 0), 0u)
        << "request " << expected[i].first << " got: " << responses[i];
  }
}

TEST(Domain, ServeAnswersDomainErrorsAndKeepsServing) {
  std::vector<std::string> requests;
  Expectations expected;
  {
    int next_id = 0;
    auto add = [&](const std::string& family, const std::string& name,
                   const std::string& reason, const std::string& body) {
      std::string id = "d" + std::to_string(next_id++);
      requests.push_back("req " + id + " optimizer=" + name + "\n" + body);
      expected.emplace_back(id, "err " + id + " domain: " + family + " " +
                                    reason);
    };
    for (const std::string& name : OptimizerRegistry::Qon().Names()) {
      const QonOptimizerEntry& entry = *OptimizerRegistry::Qon().Find(name);
      for (int n : OutOfDomainSizes(entry)) {
        add("qon", name, entry.DomainError(n), QonToString(QonOfSize(n)));
      }
    }
    for (const std::string& name : QohOptimizerRegistry::Get().Names()) {
      const QohOptimizerEntry& entry = *QohOptimizerRegistry::Get().Find(name);
      for (int n : OutOfDomainSizes(entry)) {
        add("qoh", name, entry.DomainError(n), QohToString(QohOfSize(n)));
      }
    }
    // The server is still up: a ping and an in-domain dp request answer.
    requests.push_back("ping p0\n");
    expected.emplace_back("p0", "ok p0 pong");
    requests.push_back("req ok0\n" + QonToString(QonOfSize(6)));
    expected.emplace_back("ok0", "ok ok0 qon feasible=1 status=complete");
  }
  ExpectServeResponses("", "domain", requests, expected);
}

// `adaptive` always runs its fallback, and picks among its candidates.
// A bounded fallback puts an instance out of reach (the service fails
// the item, serve answers `err <id> domain:`); a bounded candidate is
// only dropped from the decision, so the instance still runs.
TEST(Domain, AdaptiveChecksItsFallbackAndDropsCandidates) {
  const int n = 25;  // past dp's n <= 24
  const std::string fallback_reason =
      "adaptive fallback: " +
      OptimizerRegistry::Qon().Find("dp")->DomainError(n);
  {
    BatchOptions options;
    options.optimizer = "adaptive";
    options.qon.adaptive.fallback = "dp";
    std::vector<QonBatchItem> items =
        OptimizeQonBatch({QonOfSize(n), QonOfSize(6)}, options);
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].result.status, PlanStatus::kFailed);
    EXPECT_FALSE(items[0].result.feasible);
    EXPECT_NE(items[1].result.status, PlanStatus::kFailed);
    EXPECT_TRUE(items[1].result.feasible);
    EXPECT_EQ(EntryDomainError(*OptimizerRegistry::Qon().Find("adaptive"),
                               options.qon, QonOfSize(n)),
              fallback_reason);
  }
  // Cold, every candidate is under-tried and explored by a seeded draw
  // per instance, so before candidates were filtered some of these eight
  // drew dp and aborted.
  std::vector<QonInstance> past_dp;
  for (int m = n; m < n + 8; ++m) past_dp.push_back(QonOfSize(m));
  {
    FeedbackStore store;
    BatchOptions options;
    options.optimizer = "adaptive";
    options.qon.adaptive.candidates = "dp,greedy";
    options.qon.adaptive.store = &store;
    EXPECT_EQ(EntryDomainError(*OptimizerRegistry::Qon().Find("adaptive"),
                               options.qon, QonOfSize(n)),
              "");
    std::vector<QonBatchItem> items = OptimizeQonBatch(past_dp, options);
    ASSERT_EQ(items.size(), past_dp.size());
    for (const QonBatchItem& item : items) {
      EXPECT_EQ(item.result.status, PlanStatus::kComplete);
      EXPECT_TRUE(item.result.feasible);
    }
  }
  std::vector<std::string> requests;
  Expectations fallback_expected, candidates_expected;
  for (size_t i = 0; i < past_dp.size(); ++i) {
    std::string id = "a" + std::to_string(i);
    requests.push_back("req " + id + "\n" + QonToString(past_dp[i]));
    int m = past_dp[i].NumRelations();
    fallback_expected.emplace_back(
        id, "err " + id + " domain: qon adaptive fallback: " +
                OptimizerRegistry::Qon().Find("dp")->DomainError(m));
    candidates_expected.emplace_back(
        id, "ok " + id + " qon feasible=1 status=complete");
  }
  // The adaptive flags are read for both families, and QO_H has no `dp`:
  // an adaptive QO_H request must not reach an unknown-name CHECK.
  requests.push_back("req q0 optimizer=adaptive\n" +
                     QohToString(QohOfSize(6)));
  fallback_expected.emplace_back(
      "q0", "err q0 domain: qoh adaptive fallback: unknown optimizer 'dp'");
  candidates_expected.emplace_back(
      "q0", "err q0 domain: qoh adaptive candidate: unknown optimizer 'dp'");
  requests.push_back("ping p0\n");
  requests.push_back("req ok0\n" + QonToString(QonOfSize(6)));
  for (Expectations* e : {&fallback_expected, &candidates_expected}) {
    e->emplace_back("p0", "ok p0 pong");
    e->emplace_back("ok0", "ok ok0 qon feasible=1 status=complete");
  }
  ExpectServeResponses("--optimizer=adaptive --fallback=dp",
                       "adaptive_fallback", requests, fallback_expected);
  ExpectServeResponses("--optimizer=adaptive --adaptive-candidates=dp,greedy",
                       "adaptive_candidates", requests, candidates_expected);
}

// --- The magnitude domain ---

// Sum of |log2 size| and |log2 selectivity|: the gate's measure.
template <typename Instance>
double Magnitude(const Instance& inst) {
  double m = 0.0;
  for (int i = 0; i < inst.NumRelations(); ++i) {
    m += std::fabs(inst.size(i).Log2());
  }
  for (const auto& [u, v] : inst.graph().Edges()) {
    m += std::fabs(inst.selectivity(u, v).Log2());
  }
  return m;
}

// Chain instances of 5 relations with magnitude `total`, in four shapes:
// huge sizes, sub-page sizes, sizes against selective joins, and one
// relation holding it all.
constexpr int kEdgeN = 5;

std::vector<std::pair<std::vector<double>, double>> MagnitudeShapes(
    double total) {
  const double per = total / kEdgeN;
  const double half = total / 2.0;
  return {
      {std::vector<double>(kEdgeN, per), 0.0},
      {std::vector<double>(kEdgeN, -per), 0.0},
      {std::vector<double>(kEdgeN, half / kEdgeN), -half / (kEdgeN - 1)},
      {{total, 0.0, 0.0, 0.0, 0.0}, 0.0},
  };
}

std::vector<QonInstance> QonOfMagnitude(double total) {
  std::vector<QonInstance> out;
  for (const auto& [logs, sel] : MagnitudeShapes(total)) {
    std::vector<LogDouble> sizes;
    for (double l : logs) sizes.push_back(LogDouble::FromLog2(l));
    QonInstance inst(Chain(kEdgeN), std::move(sizes));
    for (int i = 0; i + 1 < kEdgeN; ++i) {
      inst.SetSelectivity(i, i + 1, LogDouble::FromLog2(sel));
    }
    out.push_back(std::move(inst));
  }
  return out;
}

std::vector<QohInstance> QohOfMagnitude(double total) {
  std::vector<QohInstance> out;
  for (const auto& [logs, sel] : MagnitudeShapes(total)) {
    std::vector<LogDouble> sizes;
    for (double l : logs) sizes.push_back(LogDouble::FromLog2(l));
    QohInstance inst(Chain(kEdgeN), std::move(sizes), 1e12);
    for (int i = 0; i + 1 < kEdgeN; ++i) {
      inst.SetSelectivity(i, i + 1, LogDouble::FromLog2(sel));
    }
    out.push_back(std::move(inst));
  }
  return out;
}

TEST(Magnitude, EveryEntryRunsToAFinitePlanInsideTheBound) {
  const double total = kMaxInstanceLog2Magnitude * 0.999;
  FeedbackStore store;
  std::vector<QonInstance> qon = QonOfMagnitude(total);
  for (const std::string& name : OptimizerRegistry::Qon().Names()) {
    BatchOptions options;
    options.optimizer = name;
    options.qon.adaptive.store = &store;
    std::vector<QonBatchItem> items = OptimizeQonBatch(qon, options);
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_NEAR(Magnitude(qon[i]), total, total * 1e-12);
      // Every QO_N sequence is a plan (kbz answers only tree queries;
      // these chains are trees).
      EXPECT_EQ(items[i].result.status, PlanStatus::kComplete)
          << name << " shape " << i;
      EXPECT_TRUE(items[i].result.feasible) << name << " shape " << i;
      EXPECT_TRUE(std::isfinite(items[i].result.cost.Log2()))
          << name << " shape " << i;
    }
  }
  std::vector<QohInstance> qoh = QohOfMagnitude(total);
  for (const std::string& name : QohOptimizerRegistry::Get().Names()) {
    BatchOptions options;
    options.optimizer = name;
    options.qoh.adaptive.store = &store;
    std::vector<QohBatchItem> items = OptimizeQohBatch(qoh, options);
    for (size_t i = 0; i < items.size(); ++i) {
      // Hash tables must fit in memory, so some shapes have no plan.
      EXPECT_EQ(items[i].result.status, PlanStatus::kComplete)
          << name << " shape " << i;
      if (items[i].result.feasible) {
        EXPECT_TRUE(std::isfinite(items[i].result.cost.Log2()))
            << name << " shape " << i;
      }
    }
  }
}

TEST(Magnitude, ServiceFailsInstancesPastTheBound) {
  const double total = kMaxInstanceLog2Magnitude * 1.001;
  for (const std::string& name : OptimizerRegistry::Qon().Names()) {
    const QonOptimizerEntry& entry = *OptimizerRegistry::Qon().Find(name);
    PlanCache cache;
    BatchOptions options;
    options.optimizer = name;
    options.cache = &cache;
    for (const QonInstance& inst : QonOfMagnitude(total)) {
      EXPECT_NE(EntryDomainError(entry, options.qon, inst), "") << name;
    }
    for (const QonBatchItem& item :
         OptimizeQonBatch(QonOfMagnitude(total), options)) {
      EXPECT_EQ(item.result.status, PlanStatus::kFailed) << name;
      EXPECT_FALSE(item.result.feasible) << name;
    }
    EXPECT_EQ(cache.GetStats().entries, 0u) << name;
  }
  for (const std::string& name : QohOptimizerRegistry::Get().Names()) {
    BatchOptions options;
    options.optimizer = name;
    for (const QohBatchItem& item :
         OptimizeQohBatch(QohOfMagnitude(total), options)) {
      EXPECT_EQ(item.result.status, PlanStatus::kFailed) << name;
      EXPECT_FALSE(item.result.feasible) << name;
    }
  }
}

// Requests whose log2 values are each finite but sum past double range.
// Before the magnitude domain, the first two aborted the server at
// LogDouble::FromLog2(+inf), the third answered feasible=0 for a QO_N
// instance (every sequence is a plan), and the QO_H one aborted too.
const char* const kOverflowBodies[] = {
    "qon 2\nrel 0 1e308\nrel 1 1e308\n",
    "qon 3\nrel 0 6e307\nrel 1 6e307\nrel 2 6e307\n",
    "qoh 2 170 0.5\nrel 0 1e308\nrel 1 1e308\n",
};

TEST(Magnitude, ServiceFailsTheOverflowRequests) {
  for (const char* optimizer : {"greedy", "ii", "dp"}) {
    for (int b : {0, 1}) {
      ParseResult<QonInstance> parsed = ParseQonInstance(kOverflowBodies[b]);
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      BatchOptions options;
      options.optimizer = optimizer;
      std::vector<QonBatchItem> items =
          OptimizeQonBatch({*parsed.value}, options);
      EXPECT_EQ(items[0].result.status, PlanStatus::kFailed) << optimizer;
      EXPECT_FALSE(items[0].result.feasible) << optimizer;
    }
  }
  ParseResult<QohInstance> parsed = ParseQohInstance(kOverflowBodies[2]);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  BatchOptions options;
  options.optimizer = "greedy";
  EXPECT_EQ(OptimizeQohBatch({*parsed.value}, options)[0].result.status,
            PlanStatus::kFailed);
}

TEST(Magnitude, ServeAnswersDomainErrorsAndKeepsServing) {
  const std::string reason =
      "sum of |log2 size| and |log2 selectivity| is inf, above 1e+300";
  std::vector<std::string> requests = {
      std::string("req b optimizer=greedy\n") + kOverflowBodies[0],
      std::string("req c optimizer=ii\n") + kOverflowBodies[0],
      std::string("req d\n") + kOverflowBodies[0],
      std::string("req e optimizer=greedy\n") + kOverflowBodies[1],
      std::string("req f\n") + kOverflowBodies[2],
      "req g\n" + QonToString(QonOfMagnitude(
                       kMaxInstanceLog2Magnitude * 1.001)[2]),
      "ping p0\n",
      "req ok0\n" + QonToString(QonOfMagnitude(
                         kMaxInstanceLog2Magnitude * 0.999)[2]),
  };
  Expectations expected;
  for (const char* id : {"b", "c", "d", "e"}) {
    expected.emplace_back(id, std::string("err ") + id + " domain: qon " +
                                  reason);
  }
  expected.emplace_back("f", "err f domain: qoh " + reason);
  expected.emplace_back("g", "err g domain: qon sum of |log2 size| and "
                             "|log2 selectivity| is 1.001e+300, above 1e+300");
  expected.emplace_back("p0", "ok p0 pong");
  expected.emplace_back("ok0", "ok ok0 qon feasible=1 status=complete");
  ExpectServeResponses("", "magnitude", requests, expected);
}

// The gap instances the benches build, at their largest parameters, are
// inside the domain by many orders of magnitude.
TEST(Magnitude, GapInstancesAreInsideTheBound) {
  const QonOptimizerEntry& qon = *OptimizerRegistry::Qon().Find("greedy");
  const QohOptimizerEntry& qoh = *QohOptimizerRegistry::Get().Find("greedy");
  double largest = 0.0;
  auto check_qon = [&](const QonInstance& inst) {
    EXPECT_EQ(EntryDomainError(qon, {}, inst), "");
    largest = std::max(largest, Magnitude(inst));
  };
  auto check_qoh = [&](const QohInstance& inst) {
    EXPECT_EQ(EntryDomainError(qoh, {}, inst), "");
    largest = std::max(largest, Magnitude(inst));
  };
  // E1: f_N NO instances, n up to 150, lg alpha up to 8.
  for (int n : {90, 150}) {
    QonGapParams params{.c = 2.0 / 3.0, .d = 1.0 / 3.0, .log2_alpha = 8.0};
    check_qon(ReduceCliqueToQon(CompleteMultipartite(n, n / 3), params)
                  .instance);
  }
  // E3: f_H, with the sentinel t_0 = (n t)^12.
  for (int n : {9, 15}) {
    check_qoh(
        ReduceTwoThirdsCliqueToQoh(CompleteMultipartite(n, 3), QohGapParams{})
            .instance);
  }
  // E5: sparse f_N, m = 512 relations, alpha = 2^60000, both budget ends.
  Rng rng(5);
  for (bool dense : {false, true}) {
    Graph g1 = CliqueClassGraph(8, 2, 1.0, 6, &rng);
    SparseQonParams params;
    params.base = {.c = 0.75, .d = 0.5, .log2_alpha = 60000.0};
    params.k = 3;
    params.edge_budget =
        dense ? DenseEdgeBudget(512, 0.85) : SparseEdgeBudget(512, 0.85);
    check_qon(ReduceCliqueToSparseQon(g1, params, &rng).instance);
  }
  // E6: sparse f_H, n = 12, m = 144.
  SparseQohParams params;
  params.base.log2_alpha = 2.0;
  params.k = 2;
  params.edge_budget = SparseEdgeBudget(144, 0.9);
  check_qoh(
      ReduceTwoThirdsCliqueToSparseQoh(Graph::Complete(12), params, &rng)
          .instance);
  EXPECT_LT(largest, 4e6);  // 3.63e6, the dense-end E5 instance
}

}  // namespace
}  // namespace aqo
