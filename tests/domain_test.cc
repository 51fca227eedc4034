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

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
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
                               options.qon, n),
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
                               options.qon, n),
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

}  // namespace
}  // namespace aqo
