#include "store/tsdb.hpp"

#include <algorithm>
#include <cmath>

#include "store/cursor.hpp"

namespace hpcmon::store {

using core::SeriesId;
using core::TimedValue;
using core::TimePoint;
using core::TimeRange;

std::string_view to_string(Agg agg) {
  switch (agg) {
    case Agg::kSum: return "sum";
    case Agg::kMean: return "mean";
    case Agg::kMin: return "min";
    case Agg::kMax: return "max";
    case Agg::kCount: return "count";
    case Agg::kLast: return "last";
  }
  return "?";
}

std::optional<double> aggregate_points(const std::vector<TimedValue>& pts,
                                       Agg agg) {
  if (pts.empty()) return std::nullopt;
  switch (agg) {
    case Agg::kCount:
      return static_cast<double>(pts.size());
    case Agg::kLast:
      return pts.back().value;
    case Agg::kSum:
    case Agg::kMean: {
      double sum = 0.0;
      for (const auto& p : pts) sum += p.value;
      return agg == Agg::kSum ? sum : sum / static_cast<double>(pts.size());
    }
    case Agg::kMin: {
      double m = pts[0].value;
      for (const auto& p : pts) m = std::min(m, p.value);
      return m;
    }
    case Agg::kMax: {
      double m = pts[0].value;
      for (const auto& p : pts) m = std::max(m, p.value);
      return m;
    }
  }
  return std::nullopt;
}

QueryStats& QueryStats::operator+=(const QueryStats& o) {
  queries += o.queries;
  summary_chunks += o.summary_chunks;
  cursor_chunks += o.cursor_chunks;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_evictions += o.cache_evictions;
  cache_invalidations += o.cache_invalidations;
  cache_entries += o.cache_entries;
  return *this;
}

bool TimeSeriesStore::append(SeriesId id, TimePoint t, double value) {
  const auto i = core::raw(id);
  {
    std::shared_lock map_lock(map_mu_);
    if (i < series_.size()) return append_at(i, t, value);
  }
  std::unique_lock map_lock(map_mu_);  // slow path: grow the series table
  if (i >= series_.size()) series_.resize(i + 1);
  return append_at(i, t, value);
}

bool TimeSeriesStore::append_at(std::size_t i, TimePoint t, double value) {
  std::scoped_lock lock(stripe(i));
  return append_locked(series_[i], t, value);
}

bool TimeSeriesStore::append_locked(Series& s, TimePoint t, double value) {
  if (t <= s.last_time) return false;  // strict ordering per series
  s.head.push_back({t, value});
  s.last_time = t;
  if (s.head.size() >= chunk_points_) seal_locked(s);
  return true;
}

std::size_t TimeSeriesStore::append_batch(
    std::span<const core::Sample> samples) {
  if (samples.empty()) return 0;
  std::size_t max_index = 0;
  for (const auto& s : samples) {
    max_index =
        std::max(max_index, static_cast<std::size_t>(core::raw(s.series)));
  }
  std::shared_lock map_lock(map_mu_);
  if (max_index >= series_.size()) {
    map_lock.unlock();
    {
      std::unique_lock grow(map_mu_);
      if (max_index >= series_.size()) series_.resize(max_index + 1);
    }
    map_lock.lock();
  }

  // Stable counting sort of sample indices by lock stripe: each stripe mutex
  // is then taken once per batch instead of once per sample. Within a stripe
  // samples keep arrival order, and appends to different series commute, so
  // accept/seal decisions — and sealed chunk bytes — match the per-sample
  // path exactly.
  std::array<std::size_t, kLockStripes + 1> offsets{};
  for (const auto& s : samples) {
    ++offsets[core::raw(s.series) % kLockStripes + 1];
  }
  for (std::size_t k = 1; k <= kLockStripes; ++k) offsets[k] += offsets[k - 1];
  thread_local std::vector<std::uint32_t> order;
  order.resize(samples.size());
  auto fill = offsets;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    order[fill[core::raw(samples[i].series) % kLockStripes]++] =
        static_cast<std::uint32_t>(i);
  }

  std::size_t accepted = 0;
  for (std::size_t k = 0; k < kLockStripes; ++k) {
    if (offsets[k] == offsets[k + 1]) continue;
    std::scoped_lock lock(stripe_mu_[k]);
    for (std::size_t j = offsets[k]; j < offsets[k + 1]; ++j) {
      const auto& s = samples[order[j]];
      if (append_locked(series_[core::raw(s.series)], s.time, s.value)) {
        ++accepted;
      }
    }
  }
  return accepted;
}

std::size_t TimeSeriesStore::append_run(SeriesId id,
                                        std::span<const core::Sample> run) {
  if (run.empty()) return 0;
  const auto i = static_cast<std::size_t>(core::raw(id));
  std::shared_lock map_lock(map_mu_);
  if (i >= series_.size()) {
    map_lock.unlock();
    {
      std::unique_lock grow(map_mu_);
      if (i >= series_.size()) series_.resize(i + 1);
    }
    map_lock.lock();
  }
  std::scoped_lock lock(stripe(i));
  auto& s = series_[i];
  // One head-extend for the whole run (head capacity survives sealing, so
  // steady-state appends never allocate).
  s.head.reserve(std::min(chunk_points_, s.head.size() + run.size()));
  std::size_t accepted = 0;
  for (const auto& smp : run) {
    if (append_locked(s, smp.time, smp.value)) ++accepted;
  }
  return accepted;
}

void TimeSeriesStore::seal_locked(Series& s) {
  if (s.head.empty()) return;
  s.sealed.push_back(std::make_shared<const Chunk>(Chunk::compress(s.head)));
  s.head.clear();
}

TimeSeriesStore::ReadView TimeSeriesStore::read_view(
    SeriesId id, const TimeRange& range) const {
  ReadView view;
  const auto i = core::raw(id);
  std::shared_lock map_lock(map_mu_);
  if (i >= series_.size()) return view;
  std::scoped_lock lock(stripe(i));
  const auto& s = series_[i];
  for (const auto& c : s.sealed) {
    if (!c->overlaps(range)) continue;
    view.chunk_points += c->count();
    view.chunks.push_back(c);
  }
  for (const auto& p : s.head) {
    if (range.contains(p.time)) view.head.push_back(p);
  }
  return view;
}

DecodedChunk TimeSeriesStore::decoded(const Chunk& chunk, bool& hit) const {
  if (auto cached = cache_.get(chunk.id())) {
    hit = true;
    return cached;
  }
  hit = false;
  auto pts =
      std::make_shared<const std::vector<TimedValue>>(chunk.decompress());
  cache_.put(chunk.id(), pts);
  return pts;
}

std::vector<TimedValue> TimeSeriesStore::query_range(
    SeriesId id, const TimeRange& range) const {
  queries_.add();
  obs::StageTimer::Scoped span(stages_, obs::Stage::kQueryCache);
  std::vector<TimedValue> out;
  if (range.empty()) return out;
  const auto view = read_view(id, range);
  out.reserve(view.chunk_points + view.head.size());
  for (const auto& c : view.chunks) {
    // Keep the decoded vector alive for the loop: when the cache is disabled
    // the returned shared_ptr is the only owner.
    bool hit = false;
    const auto pts = decoded(*c, hit);
    // A single decompress reclassifies the whole read: it dominates latency.
    if (!hit) span.set_stage(obs::Stage::kQueryCursor);
    for (const auto& p : *pts) {
      if (range.contains(p.time)) out.push_back(p);
    }
  }
  out.insert(out.end(), view.head.begin(), view.head.end());
  return out;  // chunks are time-ordered, head follows sealed
}

std::optional<TimedValue> TimeSeriesStore::latest(SeriesId id) const {
  const auto i = core::raw(id);
  std::shared_lock map_lock(map_mu_);
  if (i >= series_.size()) return std::nullopt;
  std::scoped_lock lock(stripe(i));
  const auto& s = series_[i];
  if (!s.head.empty()) return s.head.back();
  if (!s.sealed.empty()) {
    // The seal-time summary already knows the newest sealed point: no decode.
    const auto& c = *s.sealed.back();
    if (c.count() > 0) return TimedValue{c.max_time(), c.summary().last};
  }
  return std::nullopt;
}

std::optional<double> TimeSeriesStore::aggregate(SeriesId id,
                                                 const TimeRange& range,
                                                 Agg agg) const {
  queries_.add();
  obs::StageTimer::Scoped span(stages_, obs::Stage::kQuerySummary);
  if (range.empty()) return std::nullopt;
  const auto view = read_view(id, range);
  ChunkSummary acc;
  for (const auto& c : view.chunks) {
    if (c->covered_by(range)) {
      acc.merge(c->summary());
      summary_chunks_.add();
      continue;
    }
    // Boundary chunk: batch-decode through a stack block instead of
    // materializing the chunk; early exit between blocks keeps the old
    // stop-past-range.end behavior at block granularity.
    cursor_chunks_.add();
    span.set_stage(obs::Stage::kQueryCursor);
    ChunkCursor cursor(*c);
    TimedValue block[256];
    bool past_end = false;
    while (!past_end) {
      const std::size_t n = cursor.scan_batch(block);
      if (n == 0) break;
      for (std::size_t k = 0; k < n; ++k) {
        if (block[k].time >= range.end) {
          past_end = true;
          break;
        }
        if (block[k].time >= range.begin) acc.add(block[k]);
      }
    }
  }
  for (const auto& p : view.head) acc.add(p);
  return summary_aggregate(acc, agg);
}

std::vector<TimedValue> TimeSeriesStore::downsample(SeriesId id,
                                                    const TimeRange& range,
                                                    core::Duration bucket,
                                                    Agg agg) const {
  queries_.add();
  obs::StageTimer::Scoped span(stages_, obs::Stage::kQuerySummary);
  std::vector<TimedValue> out;
  if (bucket <= 0 || range.empty()) return out;
  const auto view = read_view(id, range);

  // Data arrives in time order, so bucket starts are non-decreasing and the
  // open bucket is always the back of the list.
  std::vector<std::pair<TimePoint, ChunkSummary>> buckets;
  const auto bucket_start = [&](TimePoint t) {
    return downsample_bucket(range.begin, t, bucket);
  };
  const auto acc_for = [&](TimePoint bs) -> ChunkSummary& {
    if (buckets.empty() || buckets.back().first != bs) {
      buckets.emplace_back(bs, ChunkSummary{});
    }
    return buckets.back().second;
  };

  for (const auto& c : view.chunks) {
    // A chunk entirely inside the range AND inside one bucket contributes
    // its summary without decoding — stepped aggregation per bucket.
    if (c->covered_by(range) &&
        bucket_start(c->min_time()) == bucket_start(c->max_time())) {
      acc_for(bucket_start(c->min_time())).merge(c->summary());
      summary_chunks_.add();
      continue;
    }
    cursor_chunks_.add();
    span.set_stage(obs::Stage::kQueryCursor);
    ChunkCursor cursor(*c);
    TimedValue block[256];
    bool past_end = false;
    while (!past_end) {
      const std::size_t n = cursor.scan_batch(block);
      if (n == 0) break;
      for (std::size_t k = 0; k < n; ++k) {
        if (block[k].time >= range.end) {
          past_end = true;
          break;
        }
        if (block[k].time >= range.begin) {
          acc_for(bucket_start(block[k].time)).add(block[k]);
        }
      }
    }
  }
  for (const auto& p : view.head) acc_for(bucket_start(p.time)).add(p);

  out.reserve(buckets.size());
  for (const auto& [bs, acc] : buckets) {
    if (auto v = summary_aggregate(acc, agg)) out.push_back({bs, *v});
  }
  return out;
}

std::size_t TimeSeriesStore::scan(
    SeriesId id, const TimeRange& range,
    const std::function<bool(const TimedValue&)>& visit) const {
  queries_.add();
  obs::StageTimer::Scoped span(stages_, obs::Stage::kQueryCursor);
  if (range.empty()) return 0;
  const auto view = read_view(id, range);
  std::size_t visited = 0;
  for (const auto& c : view.chunks) {
    cursor_chunks_.add();
    ChunkCursor cursor(*c);
    TimedValue p;
    while (cursor.next(p)) {
      if (p.time >= range.end) return visited;
      if (p.time < range.begin) continue;
      ++visited;
      if (!visit(p)) return visited;
    }
  }
  for (const auto& p : view.head) {
    ++visited;
    if (!visit(p)) return visited;
  }
  return visited;
}

std::size_t TimeSeriesStore::evict_before(
    TimePoint cutoff,
    const std::function<void(SeriesId, Chunk&&)>& sink) {
  std::size_t evicted = 0;
  std::vector<std::uint64_t> dropped;  // cache invalidations, outside stripes
  std::vector<SeriesId> gone;          // series left fully empty
  {
    std::shared_lock map_lock(map_mu_);
    for (std::size_t i = 0; i < series_.size(); ++i) {
      std::scoped_lock lock(stripe(i));
      auto& s = series_[i];
      const bool had_data = !s.sealed.empty() || !s.head.empty();
      auto it = s.sealed.begin();
      while (it != s.sealed.end() && (*it)->max_time() < cutoff) {
        dropped.push_back((*it)->id());
        if (sink) {
          Chunk copy(**it);  // queries may still hold the shared ref
          sink(SeriesId{static_cast<std::uint32_t>(i)}, std::move(copy));
        }
        it = s.sealed.erase(it);
        ++evicted;
      }
      if (had_data && gone_ && s.sealed.empty() && s.head.empty()) {
        gone.push_back(SeriesId{static_cast<std::uint32_t>(i)});
      }
    }
  }
  for (const auto id : dropped) cache_.erase(id);
  for (const auto id : gone) gone_(id);
  return evicted;
}

TimeSeriesStore::SealedChunkSet TimeSeriesStore::sealed_chunks_before(
    TimePoint cutoff) const {
  std::shared_lock map_lock(map_mu_);
  SealedChunkSet out;
  out.safe_watermark = cutoff;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    std::scoped_lock lock(stripe(i));
    const auto& s = series_[i];
    TimePoint oldest_remaining = INT64_MAX;
    for (const auto& c : s.sealed) {
      if (c->max_time() < cutoff) {
        out.chunks.emplace_back(SeriesId{static_cast<std::uint32_t>(i)}, c);
      } else {
        oldest_remaining = std::min(oldest_remaining, c->min_time());
      }
    }
    if (!s.head.empty()) {
      oldest_remaining = std::min(oldest_remaining, s.head.front().time);
    }
    out.safe_watermark = std::min(out.safe_watermark, oldest_remaining);
  }
  return out;
}

std::size_t TimeSeriesStore::evict_chunks(
    const std::vector<std::pair<core::SeriesId, std::uint64_t>>& ids) {
  std::size_t evicted = 0;
  std::vector<std::uint64_t> dropped;
  std::vector<SeriesId> gone;
  {
    std::shared_lock map_lock(map_mu_);
    for (const auto& [sid, chunk_id] : ids) {
      const auto i = core::raw(sid);
      if (i >= series_.size()) continue;
      std::scoped_lock lock(stripe(i));
      auto& s = series_[i];
      for (auto it = s.sealed.begin(); it != s.sealed.end(); ++it) {
        if ((*it)->id() == chunk_id) {
          dropped.push_back(chunk_id);
          s.sealed.erase(it);
          ++evicted;
          if (gone_ && s.sealed.empty() && s.head.empty()) {
            gone.push_back(sid);
          }
          break;
        }
      }
    }
  }
  for (const auto id : dropped) cache_.erase(id);
  for (const auto id : gone) gone_(id);
  return evicted;
}

bool TimeSeriesStore::has_series(SeriesId id) const {
  const auto i = core::raw(id);
  std::shared_lock map_lock(map_mu_);
  if (i >= series_.size()) return false;
  std::scoped_lock lock(stripe(i));
  const auto& s = series_[i];
  return !s.head.empty() || !s.sealed.empty();
}

StoreStats TimeSeriesStore::stats() const {
  std::shared_lock map_lock(map_mu_);
  StoreStats st;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    std::scoped_lock lock(stripe(i));
    const auto& s = series_[i];
    if (s.head.empty() && s.sealed.empty()) continue;
    ++st.series;
    st.head_points += s.head.size();
    st.points += s.head.size();
    for (const auto& c : s.sealed) {
      st.points += c->count();
      st.compressed_bytes += c->byte_size();
      ++st.sealed_chunks;
    }
  }
  return st;
}

QueryStats TimeSeriesStore::query_stats() const {
  QueryStats qs;
  qs.queries = queries_.value();
  qs.summary_chunks = summary_chunks_.value();
  qs.cursor_chunks = cursor_chunks_.value();
  const auto cs = cache_.stats();
  qs.cache_hits = cs.hits;
  qs.cache_misses = cs.misses;
  qs.cache_evictions = cs.evictions;
  qs.cache_invalidations = cs.invalidations;
  qs.cache_entries = cs.entries;
  return qs;
}

void TimeSeriesStore::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"store.queries", "queries",
                   "read-path calls (range+aggregate+downsample+scan)"},
                  &queries_);
  registry.attach(
      {"store.summary_chunks", "chunks",
       "chunks answered from seal-time summaries without decoding"},
      &summary_chunks_);
  registry.attach({"store.cursor_chunks", "chunks",
                   "boundary chunks streamed point-by-point"},
                  &cursor_chunks_);
  cache_.attach_to(registry);
}

}  // namespace hpcmon::store
