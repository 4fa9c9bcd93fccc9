// Ablation: write-ahead-log overhead on the ingest path.
//
// The WAL buys crash recovery (Sec. IV: stores must be dependable across
// restarts) at the cost of one CRC + fwrite + fflush per sample frame,
// serialized ahead of the store append. This bench bounds that cost: the
// same deterministic sweep workload is appended (a) straight into the hot
// store, (b) through the WAL first, and (c) through the WAL with small
// segments so rotation churns. The claim to check is not "the WAL is free"
// but "durability costs a bounded constant factor on the append path, and
// replay restores every record" — the trade a site accepts knowingly.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "resilience/wal.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::bench {
namespace {

using core::Sample;
using core::SampleBatch;
using core::SeriesId;
using std::chrono::steady_clock;

constexpr std::uint32_t kSeries = 256;
constexpr int kSweeps = 1000;
constexpr std::size_t kChunkPoints = 512;

double seconds_since(steady_clock::time_point t0) {
  return std::chrono::duration<double>(steady_clock::now() - t0).count();
}

std::vector<SampleBatch> make_sweeps() {
  std::vector<SampleBatch> sweeps;
  core::Rng rng(42);
  sweeps.reserve(kSweeps);
  for (int p = 0; p < kSweeps; ++p) {
    SampleBatch b;
    b.sweep_time = (p + 1) * core::kSecond;
    b.samples.reserve(kSeries);
    for (std::uint32_t s = 0; s < kSeries; ++s) {
      b.samples.push_back(
          {SeriesId{s}, b.sweep_time, 40.0 + rng.uniform(0.0, 20.0)});
    }
    sweeps.push_back(std::move(b));
  }
  return sweeps;
}

double run_store_only(const std::vector<SampleBatch>& sweeps) {
  store::TimeSeriesStore store(kChunkPoints);
  const auto t0 = steady_clock::now();
  for (const auto& b : sweeps) store.append_batch(b.samples);
  return seconds_since(t0);
}

double run_with_wal(const std::vector<SampleBatch>& sweeps,
                    std::size_t segment_bytes,
                    resilience::WalStats* stats_out) {
  const std::string dir = "/tmp/hpcmon_bench_wal";
  std::filesystem::remove_all(dir);
  store::TimeSeriesStore store(kChunkPoints);
  resilience::WriteAheadLog wal({.dir = dir, .segment_bytes = segment_bytes});
  const auto t0 = steady_clock::now();
  for (const auto& b : sweeps) {
    wal.append(transport::encode_samples(b));
    store.append_batch(b.samples);
  }
  const double secs = seconds_since(t0);
  if (stats_out != nullptr) *stats_out = wal.stats();
  return secs;
}

}  // namespace
}  // namespace hpcmon::bench

int main(int argc, char** argv) {
  hpcmon::bench::json_init(argc, argv);
  using namespace hpcmon::bench;
  header("Ablation: WAL overhead on the append path",
         "Sec. IV / Table I Data Storage — dependable ('always on') stores");

  const auto sweeps = make_sweeps();
  const std::size_t total_samples =
      static_cast<std::size_t>(kSweeps) * kSeries;
  std::printf("workload: %d sweeps x %u series = %zu samples\n\n", kSweeps,
              kSeries, total_samples);

  // Warm-up pass absorbs first-touch costs, then measure.
  run_store_only(sweeps);
  const double base = run_store_only(sweeps);
  hpcmon::resilience::WalStats wal_stats;
  const double walled = run_with_wal(sweeps, 1u << 20, &wal_stats);
  hpcmon::resilience::WalStats churn_stats;
  const double churned = run_with_wal(sweeps, 16u << 10, &churn_stats);

  const double overhead = walled / base;
  const double churn_overhead = churned / base;
  std::printf("store only        : %8.3f ms  (%5.1f Msamples/s)\n",
              base * 1e3, total_samples / base / 1e6);
  std::printf("wal + store (1MiB): %8.3f ms  overhead x%.2f, %llu segs\n",
              walled * 1e3, overhead,
              static_cast<unsigned long long>(wal_stats.segments_created));
  std::printf("wal + store (16KiB): %7.3f ms  overhead x%.2f, %llu segs\n",
              churned * 1e3, churn_overhead,
              static_cast<unsigned long long>(churn_stats.segments_created));

  // Replay the churned log and confirm nothing was lost.
  std::size_t replayed = 0;
  const auto rs = hpcmon::resilience::WriteAheadLog::replay(
      "/tmp/hpcmon_bench_wal",
      [&](hpcmon::core::SampleBatch&& b) { replayed += b.size(); });
  std::printf("replay            : %llu records, %zu samples, %s\n\n",
              static_cast<unsigned long long>(rs.records), replayed,
              rs.to_string().c_str());

  shape_check(wal_stats.appended_records == static_cast<std::uint64_t>(kSweeps),
              "every sweep frame is WAL-appended before the store append");
  shape_check(rs.records == static_cast<std::uint64_t>(kSweeps) &&
                  replayed == total_samples,
              "replay restores every appended record and sample");
  // Generous bound: fwrite+fflush per 256-sample batch amortizes well; a
  // durable append path should stay within an order of magnitude of the
  // bare in-memory append, and typically far closer.
  json_metric("wal.append_overhead_x", overhead);
  json_metric("wal.churn_vs_walled_x", churned / walled);
  shape_check(overhead < 10.0,
              "WAL durability costs < 10x the bare hot-tier append");
  shape_check(churned < walled * 8.0,
              "aggressive 16KiB segment rotation does not blow up the cost");
  std::filesystem::remove_all("/tmp/hpcmon_bench_wal");
  return finish();
}
