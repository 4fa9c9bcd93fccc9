// Checks of the benchmark's own measurement helpers (src/report.hpp).
// Plain asserts-that-survive-NDEBUG: the benchmark package builds without
// any test framework. Exit code 0 = every check passed.
#include <cstdio>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void percentile_needs_ten_samples_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  // p50 of 20 samples is rank 10 with 10 beyond it: supported.
  const auto p50 = e2e::percentile(v, 0.5);
  check(p50.has_value(), "p50 of 20 samples is supported");
  check(p50 && p50->value == 10.0 && p50->n == 20 && p50->beyond == 10,
        "p50 of 1..20 is 10 with n=20, beyond=10");
  // p90 of 20 samples has only 2 beyond it.
  check(!e2e::percentile(v, 0.9).has_value(), "p90 of 20 samples is empty");

  std::vector<double> thousand;
  for (int i = 0; i < 1000; ++i) thousand.push_back(999 - i);  // unsorted
  const auto p99 = e2e::percentile(thousand, 0.99);
  check(p99 && p99->value == 989.0 && p99->beyond == 10,
        "p99 of 1000 samples is rank 990 with exactly 10 beyond");
  thousand.pop_back();
  check(!e2e::percentile(thousand, 0.99).has_value(),
        "p99 of 999 samples is empty (9 beyond)");
  check(!e2e::percentile({}, 0.5).has_value(), "empty sample is empty");
  check(!e2e::percentile(v, 1.0).has_value(), "q = 1 is rejected");
}

void open_loop_stall_charges_the_queue_behind_it() {
  e2e::OpenLoop loop(100.0, 1.0);
  check(near(loop.due(3), 103.0), "due(k) = start + k * period");
  // Event 0 released on time and stalls for 3 periods.
  double ready = 99.5;
  double at = loop.release(0, ready);
  check(near(at, 100.0), "an early generator waits for the due time");
  ready = at + 3.0;
  // Events 1..3 were due at 101..103 and go out back to back, each taking
  // 0.1 s, so each is charged the stall's remaining wait.
  at = loop.release(1, ready);
  check(near(at, 103.0), "event 1 released as soon as the generator is free");
  at = loop.release(2, at + 0.1);
  at = loop.release(3, at + 0.1);
  at = loop.release(4, at + 0.1);  // due 104, ready 103.3: on time
  check(near(at, 104.0), "the backlog cleared: event 4 waits for its due time");
  const auto& late = loop.lateness();
  check(late.size() == 5, "one lateness record per release");
  check(near(late[0], 0.0) && near(late[1], 2.0) && near(late[2], 1.1) &&
            near(late[3], 0.2) && near(late[4], 0.0),
        "lateness 0, 2.0, 1.1, 0.2, 0: the stall is charged to the queue");
}

void ops_ledger_counts_failures_against_attempts() {
  e2e::OpsLedger ops;
  check(ops.failed_frac() == 0.0, "an empty ledger has no failures");
  ops.attempt("queries", 100);
  ops.fail("queries", 2);
  ops.attempt("sub_deltas", 300);
  ops.fail("sub_deltas");  // one missing delta
  ops.attempt("samples", 600);
  check(ops.attempted() == 1000 && ops.failed() == 3, "totals sum categories");
  check(near(ops.failed_frac(), 0.003), "failed_frac = failed / attempted");
  check(ops.describe().find("queries") != std::string::npos,
        "describe names every category");
}

void metric_set_prints_the_result_schema() {
  e2e::MetricSet m;
  check(m.add("latency_ms", 1.25, "ms"), "a valid metric is accepted");
  check(m.add("setup_s", 0.1, "s"), "a second metric is accepted");
  check(!m.add("latency_ms", 2.0, "ms"), "a duplicate name is rejected");
  check(!m.add("_bad", 1.0, "ms"), "a name must start with a letter/digit");
  check(!m.add("rate", 1.0, "1 / s"), "a unit may not hold spaces");
  check(!m.add("nan_metric", std::nan(""), "ms"), "NaN is rejected");
  check(m.add("rate", 3.0, "1/s"), "unit 1/s is accepted");
  check(m.rejected() == 4, "every rejected metric is counted");
  const std::string json = m.json(true, 7, 1);
  check(json ==
            "{\"correct\": true, \"attempted\": 7, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.10000000000000001, "
            "\"unit\": \"s\"}, \"rate\": {\"value\": 3, \"unit\": "
            "\"1/s\"}}}",
        "json has exactly correct/attempted/failed/metrics, full digits");
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond();
  open_loop_stall_charges_the_queue_behind_it();
  ops_ledger_counts_failures_against_attempts();
  metric_set_prints_the_result_schema();
  if (failures == 0) std::printf("report_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
