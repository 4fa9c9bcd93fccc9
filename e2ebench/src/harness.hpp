// Shared machinery of the end-to-end benchmark's two workloads: arguments,
// clocks and process counters, the simulated machine, freshness probes, the
// bench's own span log, and the traced-run per-layer ledger.
//
// Everything here sits OUTSIDE the system under test: it drives a
// MonitoringStack only through its public entry points and reads the
// stack's own obs snapshot; no span is added inside src/.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/time.hpp"
#include "obs/registry.hpp"
#include "report.hpp"
#include "sim/cluster.hpp"
#include "stack/stack.hpp"

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // working directory for WAL, tiers and spans
};

/// What one workload run hands back to main(): the metrics for the result
/// line, the failure ledger, and whether every correctness oracle held.
struct RunOutcome {
  MetricSet metrics;
  OpsLedger ops;
  bool correct = true;
  std::vector<std::string> errors;  // one line per failed oracle

  void fail_oracle(std::string what) {
    correct = false;
    errors.push_back(std::move(what));
  }
};

RunOutcome run_ingest_10k(const Args& args);
RunOutcome run_live_1k(const Args& args);

// -- Clocks and process counters ---------------------------------------------

/// Monotonic wall clock, seconds.
double now_s();
/// User + system CPU time of the whole process, seconds.
double process_cpu_s();
/// CPU time of the calling thread, seconds.
double thread_cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();
/// Time the hypervisor ran other guests while this machine's CPUs wanted to
/// run ("steal" in /proc/stat), summed over CPUs, seconds; 0 where the
/// kernel does not report it.
double host_steal_s();
/// Sleep until the monotonic clock reads `t_s`.
void sleep_until_s(double t_s);

// -- The simulated machine ---------------------------------------------------

/// `nodes` nodes at 250 per cabinet (5 chassis x 10 blades x 5 nodes), a
/// 5 s simulation tick and the given seed. The load generator, not the
/// system under test.
hpcmon::sim::ClusterParams machine(int nodes, std::uint64_t seed);
/// Start the cluster's default job stream (jobs change what nodes report).
void start_jobs(hpcmon::sim::Cluster& cluster);

/// `count` node.cpu_util series spread evenly over the machine's nodes.
std::vector<hpcmon::core::SeriesId> probe_series(hpcmon::sim::Cluster& cluster,
                                                 std::size_t count);

// -- Freshness --------------------------------------------------------------

/// Records, per probe series and sweep, how long after the sweep's due time
/// a reader first saw the sweep's sample. Sweep k >= 1 stamps its samples at
/// base + k * interval. The generator thread publishes each sweep's due time
/// with release() before it runs the sweep; a reader thread calls
/// observe() with what it read.
class FreshTracker {
 public:
  FreshTracker(hpcmon::core::TimePoint base, hpcmon::core::Duration interval,
               std::size_t probes, std::size_t max_sweeps);

  /// Generator: sweep k (1-based) was released with this due time.
  void release(std::size_t k, double due_s);
  std::size_t released() const {
    return released_.load(std::memory_order_acquire);
  }
  /// Reader: probe i's newest sample reads time `t` at `now_s`. Every sweep
  /// up to t not yet seen for that probe is recorded with age now - due.
  void observe(std::size_t probe, hpcmon::core::TimePoint t, double now_s);
  /// Reader: true when every probe has been seen through released().
  bool caught_up() const;
  /// Lowest sweep index seen by every probe.
  std::size_t min_seen() const;
  /// Newest sweep index seen for probe i (reader thread only).
  std::size_t seen(std::size_t probe) const { return seen_[probe]; }
  /// Age of sweep k (1-based) at probe i; NaN when never seen.
  double age(std::size_t k, std::size_t probe) const {
    return ages_[(k - 1) * seen_.size() + probe];
  }
  /// Every recorded age (call once the reader has stopped).
  std::vector<double> ages_s() const;

 private:
  hpcmon::core::TimePoint base_;
  hpcmon::core::Duration interval_;
  std::vector<double> due_;  // sized up front: written before release
  std::atomic<std::size_t> released_{0};
  std::vector<std::size_t> seen_;  // reader-only
  std::vector<double> ages_;       // reader-only, (sweep, probe) table
};

/// Open-loop query arrivals: exponential gaps at `rate` per second from
/// `start`, drawn from `seed`, so the query stream does not phase-lock with
/// the sweep schedule.
class Arrivals {
 public:
  Arrivals(double start_s, double rate, std::uint64_t seed)
      : next_(start_s), rng_(seed), gap_(rate) {}
  /// Due time of the next query.
  double next() {
    const double due = next_;
    next_ += gap_(rng_);
    return due;
  }

 private:
  double next_;
  std::mt19937_64 rng_;
  std::exponential_distribution<double> gap_;
};

/// The bench's client threads: joined when the scope ends, after `stop` is
/// set, so an exception on the generator thread cannot leave one running
/// against a stack that is being destroyed.
class ClientThreads {
 public:
  explicit ClientThreads(std::atomic<bool>& stop) : stop_(stop) {}
  ~ClientThreads() { stop_and_join(); }
  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;

  template <typename F>
  void start(F&& body) {
    threads_.emplace_back(std::forward<F>(body));
  }
  void stop_and_join() {
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::atomic<bool>& stop_;
  std::vector<std::thread> threads_;
};

// -- Spans -------------------------------------------------------------------

/// The bench's own spans (name, start, end), kept in memory and written as
/// JSON lines when the traced run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  void record(const char* name, double start_s, double end_s);
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// -- Traced-run ledger ---------------------------------------------------------

/// Counter delta of `name` between two snapshots.
std::uint64_t counter_delta(const hpcmon::obs::ObsSnapshot& before,
                            const hpcmon::obs::ObsSnapshot& after,
                            std::string_view name);
/// Samples the ingest tier lost between two snapshots: dropped, rejected
/// and shed (bulk and standard).
std::uint64_t lost_samples(const hpcmon::obs::ObsSnapshot& before,
                           const hpcmon::obs::ObsSnapshot& after);
/// Histogram delta (bucket-wise) of `name` between two snapshots.
hpcmon::obs::HistogramSnapshot histogram_delta(
    const hpcmon::obs::ObsSnapshot& before,
    const hpcmon::obs::ObsSnapshot& after, std::string_view name);

/// One sweep of a traced run: its wall time on the generator thread, the
/// attributed obs time inside it, and which background work it carried.
struct SweepTrace {
  double wall_s = 0.0;
  double sampler_s = 0.0;     // stage.sampler_sweep_us
  double rollup_tick_s = 0.0; // rollup.tick_us
  double fanout_s = 0.0;      // serve.fanout_us (publish_batch)
  double block_wait_s = 0.0;  // ingest.block_wait_us (generator blocked)
  bool compaction = false;    // compact.passes moved
  bool seal = false;          // hot-store sealed chunk count moved
  std::size_t sampler_sweeps = 0;  // samplers run; a battery sweep runs more
  double relay_pending = 0.0; // relay.pending gauge after the sweep
};

/// Per-sweep obs deltas of one traced phase, classified by background work.
class SweepTracer {
 public:
  /// `track_seals` reads the hot store's chunk count per sweep (the
  /// synchronous path; a sharded store is too large to walk per sweep).
  SweepTracer(hpcmon::stack::MonitoringStack& stack, bool track_seals);
  /// Call right after each timed sweep with its wall time.
  void end_sweep(double wall_s);
  const std::vector<SweepTrace>& sweeps() const { return sweeps_; }
  /// The snapshot taken when tracing began.
  const hpcmon::obs::ObsSnapshot& first() const { return first_; }

 private:
  std::size_t sealed_chunks() const;

  hpcmon::stack::MonitoringStack& stack_;
  bool track_seals_;
  hpcmon::obs::ObsSnapshot first_;
  hpcmon::obs::ObsSnapshot last_;
  std::size_t last_sealed_ = 0;
  std::size_t last_sampler_sweeps_ = 0;
  std::vector<SweepTrace> sweeps_;
};

/// Inputs of the per-layer table beyond the per-sweep traces.
struct LedgerInputs {
  std::vector<SweepTrace> sweeps;  // every traced sweep
  /// First and last obs snapshot of each traced phase (one stack each).
  std::vector<std::pair<hpcmon::obs::ObsSnapshot, hpcmon::obs::ObsSnapshot>>
      phases;
  double sim_advance_s = 0.0;     // bare twin cluster, same sweeps
  double untraced_sweep_s = 0.0;  // mean sweep wall, untraced phases
  double phase_wall_s = 0.0;      // traced phases' wall time
  std::uint64_t offered_samples = 0;  // collected in the traced sweeps
  std::uint64_t wal_samples = 0;      // WAL-appended in the traced sweeps
  std::vector<double> lateness_s;     // per traced sweep
};

/// Print the per-layer table (rows summing to sweep wall time, then the
/// off-generator-thread rows) to stdout and add every per_layer metric.
void emit_ledger(const LedgerInputs& in, MetricSet& metrics);

/// Time `sweeps` sweeps of a bare twin of the workload's cluster (same
/// params and job stream, no monitoring stack): the generator's own share.
double bare_sim_seconds(const hpcmon::sim::ClusterParams& params,
                        hpcmon::core::Duration interval, std::size_t sweeps);

/// Mean of `v`; 0 when empty.
double mean(const std::vector<double>& v);

/// Add (and print) the metrics both workloads compute the same way: the
/// median of the set-up times, CPU time per offered sample, the process's
/// peak RSS, and the generator thread's CPU time per sweep (p50, p90).
void add_run_metrics(RunOutcome& out, std::vector<double> setups_s,
                     double cpu_s, std::uint64_t offered,
                     const std::vector<double>& sweep_cpu_s);

/// Print the wall-clock figures that are reported but not gated (see
/// README): committed samples per second of `rate_wall_s`, and the host
/// steal over the `timed_wall_s` of the timed phase.
void print_wall_rates(std::uint64_t committed, double rate_wall_s,
                      double steal_s, double timed_wall_s);

/// Print a percentile with its sample count; false when the sample cannot
/// support it (fewer than ten values beyond it).
bool print_percentile(const std::string& name, const std::vector<double>& values_s,
                      double q, double scale, const char* unit);

/// Add a percentile metric; a percentile the sample cannot support is an
/// error recorded on `out` (the run then fails rather than print a guess).
void add_percentile(RunOutcome& out, const std::string& name,
                    const std::vector<double>& values_s, double q,
                    double scale, const char* unit);

}  // namespace e2e
