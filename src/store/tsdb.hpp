// TimeSeriesStore: the "hot" in-memory store for numeric telemetry.
//
// Per-series layout: an uncompressed append head plus sealed compressed
// chunks (chunk.hpp). Queries merge sealed and head data. Thread-safe:
// collectors append from transport threads while dashboards query
// (Table I: "multiple consumers ... at variety of locations").
//
// Query engine (see DESIGN.md "Query engine"):
//   * aggregate()/downsample() answer chunks fully covered by the range from
//     seal-time summaries (summary.hpp) and only stream-decode boundary
//     chunks (cursor.hpp) — stepped aggregation.
//   * query_range() decodes through a bounded LRU of decoded chunks
//     (chunk_cache.hpp) keyed by chunk generation, so dashboard refreshes
//     stop paying decode cost; scan() streams without materializing.
//   * Locking is a reader-writer map lock plus striped per-series mutexes:
//     readers snapshot chunk refs under the stripe and decode OUTSIDE any
//     lock, so queries neither block collector appends to other series nor
//     each other.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "core/sample.hpp"
#include "core/series_buffer.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"
#include "obs/stage.hpp"
#include "store/chunk.hpp"
#include "store/chunk_cache.hpp"

namespace hpcmon::store {

struct StoreStats {
  std::size_t series = 0;
  std::size_t points = 0;
  std::size_t sealed_chunks = 0;
  std::size_t compressed_bytes = 0;  // sealed payloads
  std::size_t head_points = 0;       // not yet sealed
};

/// Typed view over the read-path obs instruments (cumulative). The
/// instruments are the source of truth; this struct exists for tests and
/// benches that want field access instead of name lookups. Rendering goes
/// through obs::ObsExporter, not a bespoke to_string.
struct QueryStats {
  std::uint64_t queries = 0;         // query_range+aggregate+downsample+scan
  std::uint64_t summary_chunks = 0;  // chunks answered from summaries alone
  std::uint64_t cursor_chunks = 0;   // boundary chunks streamed point-by-point
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;      // decode cache capacity evictions
  std::uint64_t cache_invalidations = 0;  // dropped by evict_before
  std::size_t cache_entries = 0;

  QueryStats& operator+=(const QueryStats& o);
};

class TimeSeriesStore {
 public:
  /// `chunk_points`: head size at which a chunk is sealed and compressed.
  /// `cache_chunks`: decode-cache capacity in chunks (0 disables caching).
  explicit TimeSeriesStore(std::size_t chunk_points = 512,
                           std::size_t cache_chunks = 64)
      : chunk_points_(chunk_points), cache_(cache_chunks) {}

  /// Append one point. Out-of-order AND duplicate-timestamp points
  /// (time <= last time of the series) are rejected (returns false) —
  /// per-series timestamps are strictly increasing, so query_range can never
  /// return duplicate points. Matching TSDB ingest semantics.
  bool append(core::SeriesId series, core::TimePoint t, double value);
  void append(const core::Sample& s) { append(s.series, s.time, s.value); }
  /// Append a whole batch; returns the number accepted. Samples are grouped
  /// by lock stripe (stable, so per-series arrival order — and therefore
  /// every accept/reject/seal decision and sealed-chunk byte — is identical
  /// to appending them one by one), then each stripe mutex is taken once per
  /// batch instead of once per sample. Supersedes the old
  /// `const std::vector<Sample>&` overload: vectors convert implicitly.
  std::size_t append_batch(std::span<const core::Sample> samples);
  /// Append a time-ordered run of samples for ONE series under a single
  /// stripe-lock acquisition (the samples' own `series` fields are ignored).
  /// Returns the number accepted; out-of-order points are skipped with the
  /// same strict-ordering rule as append(), so the resulting head/sealed
  /// state is byte-identical to N individual append() calls.
  std::size_t append_run(core::SeriesId series,
                         std::span<const core::Sample> run);

  /// All points of a series within [range.begin, range.end), time-ordered.
  /// The output is pre-reserved from chunk counts + head size.
  std::vector<core::TimedValue> query_range(core::SeriesId series,
                                            const core::TimeRange& range) const;

  std::optional<core::TimedValue> latest(core::SeriesId series) const;

  /// Scalar aggregate over a time range; nullopt when no points in range.
  /// Chunks fully covered by the range are answered from their seal-time
  /// summaries; only boundary chunks are decoded (and those are streamed
  /// with early exit, never materialized).
  std::optional<double> aggregate(core::SeriesId series,
                                  const core::TimeRange& range, Agg agg) const;

  /// Fixed-interval downsampling: one aggregated point per bucket (bucket
  /// timestamp = bucket start). Buckets without data are omitted. A chunk
  /// falling entirely inside one bucket contributes its summary unscanned.
  std::vector<core::TimedValue> downsample(core::SeriesId series,
                                           const core::TimeRange& range,
                                           core::Duration bucket,
                                           Agg agg) const;

  /// Stream every point of `series` in `range` through `visit`, oldest
  /// first, without materializing a vector; `visit` returns false to stop.
  /// Returns the number of points visited. Sealed chunks are decoded
  /// point-by-point with early exit past range.end.
  std::size_t scan(core::SeriesId series, const core::TimeRange& range,
                   const std::function<bool(const core::TimedValue&)>& visit)
      const;

  /// Remove sealed chunks entirely older than `cutoff`, handing each to
  /// `sink` before deletion. Head data is never evicted.
  /// Evicted chunks are also dropped from the decode cache.
  std::size_t evict_before(core::TimePoint cutoff,
                           const std::function<void(core::SeriesId,
                                                    Chunk&&)>& sink);

  /// Snapshot of the sealed chunks entirely older than `cutoff`, taken for
  /// the tiered-retention compactor. `chunks` are shared refs (immutable;
  /// safe to read outside any store lock). `safe_watermark` is the highest
  /// time T such that EVERY point with time < T is inside the returned
  /// chunks: min(cutoff, oldest time still remaining in any series after
  /// those chunks are gone — a straddling chunk or head tail lowers it).
  /// Once the returned chunks are durable elsewhere, dropping replayed
  /// samples older than safe_watermark loses nothing.
  struct SealedChunkSet {
    std::vector<std::pair<core::SeriesId, std::shared_ptr<const Chunk>>>
        chunks;
    core::TimePoint safe_watermark = 0;
  };
  SealedChunkSet sealed_chunks_before(core::TimePoint cutoff) const;

  /// Remove exactly the sealed chunks named by (series, chunk generation
  /// id), dropping them from the decode cache. The compactor evicts the
  /// snapshot it durably tiered — never "everything older than X", which
  /// could swallow a chunk sealed after the snapshot. Returns the number
  /// removed (already-gone ids are ignored).
  std::size_t evict_chunks(
      const std::vector<std::pair<core::SeriesId, std::uint64_t>>& ids);

  bool has_series(core::SeriesId series) const;
  StoreStats stats() const;
  QueryStats query_stats() const;

  /// Catalog the read-path instruments (store.* counters, cache gauges) in
  /// `registry`. Attaching several stores (shards) under the same names
  /// merges them at snapshot time.
  void attach_to(obs::ObsRegistry& registry) const;

  /// Route query-path spans (query_summary/query_cursor/query_cache) into
  /// `timer`; nullptr (the default) disables span recording.
  void set_stage_timer(obs::StageTimer* timer) { stages_ = timer; }

  /// Called (outside all store locks) for every series whose LAST data just
  /// left the store — evict_before / evict_chunks removed its final sealed
  /// chunk while the head was empty. Downstream membership (the rollup tree)
  /// keys off this so retention and node churn retract stale aggregates.
  /// Not synchronized with eviction callers: set before concurrent use.
  void set_series_gone_listener(std::function<void(core::SeriesId)> fn) {
    gone_ = std::move(fn);
  }

 private:
  struct Series {
    std::vector<std::shared_ptr<const Chunk>> sealed;
    std::vector<core::TimedValue> head;
    core::TimePoint last_time = INT64_MIN;
  };
  /// What a query needs from a series, snapshotted under the stripe lock:
  /// refs to the overlapping immutable chunks plus a copy of the in-range
  /// head tail. All decoding happens after the locks are released.
  struct ReadView {
    std::vector<std::shared_ptr<const Chunk>> chunks;
    std::vector<core::TimedValue> head;
    std::size_t chunk_points = 0;  // sum of chunk counts (for reserve)
  };

  static constexpr std::size_t kLockStripes = 16;

  std::mutex& stripe(std::size_t series_index) const {
    return stripe_mu_[series_index % kLockStripes];
  }
  bool append_at(std::size_t index, core::TimePoint t, double value);
  bool append_locked(Series& s, core::TimePoint t, double value);
  void seal_locked(Series& s);
  /// Snapshot the chunks/head of `series` overlapping `range` (shared map
  /// lock + stripe lock, both released on return).
  ReadView read_view(core::SeriesId series, const core::TimeRange& range) const;
  /// Decode a sealed chunk through the LRU cache; `hit` reports whether the
  /// cache served it (feeds the query_cache stage classification).
  DecodedChunk decoded(const Chunk& chunk, bool& hit) const;

  // Lock order: map_mu_ before stripe; never take a stripe while holding
  // another stripe or the cache mutex.
  mutable std::shared_mutex map_mu_;  // guards series_ growth
  mutable std::array<std::mutex, kLockStripes> stripe_mu_;  // per-series state
  std::size_t chunk_points_;
  std::vector<Series> series_;  // indexed by raw(SeriesId)
  mutable ChunkCache cache_;
  mutable obs::Counter queries_;
  mutable obs::Counter summary_chunks_;
  mutable obs::Counter cursor_chunks_;
  obs::StageTimer* stages_ = nullptr;
  std::function<void(core::SeriesId)> gone_;
};

/// Apply an aggregate to a point vector; nullopt when empty.
std::optional<double> aggregate_points(const std::vector<core::TimedValue>& pts,
                                       Agg agg);

}  // namespace hpcmon::store
