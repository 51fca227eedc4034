#ifndef AQO_TESTS_DP_ORACLE_H_
#define AQO_TESTS_DP_ORACLE_H_

// Test-only reference DPs for qo/optimizers.h and qo/analysis.h: the
// LogDouble subset DPs the library used before its raw-log2 kernel
// (split-half min-access tables, certified log-sum-exp skip). They define
// the expected (cost bits, sequence, evaluations, status) of every DP
// run, and flush the same qon.dp.* counters, so tests/dp_kernel_test.cc
// can demand bit-identity from the production DPs.

#include "qo/optimizers.h"
#include "qo/qon.h"
#include "util/cancellation.h"

namespace aqo {
namespace oracle {

// Mask-major serial left-deep DP: per-mask ShouldStop, lowest-j tie-break,
// greedy completion when cut short.
OptimizerResult DpQonOptimizerSerial(const QonInstance& inst,
                                     const OptimizerOptions& options = {});

// Left-deep C_out DP with its own LogDouble subset-size fold.
OptimizerResult CoutOptimalJoinOrder(const QonInstance& inst,
                                     const Budget& budget = {},
                                     CancelToken* cancel = nullptr);

}  // namespace oracle
}  // namespace aqo

#endif  // AQO_TESTS_DP_ORACLE_H_
