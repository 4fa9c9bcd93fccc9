// TierStore: crash-safe downsampled retention tiers behind the hot store.
//
// The paper's Table I asks for hierarchical retention — raw telemetry kept
// briefly, coarser resolutions kept for months — and Sec. IV-C's year-scale
// dashboards need those coarse tiers to stay queryable. A TierStore holds a
// ladder of resolution tiers (raw → 10s → 5min → 1h by default); each tier
// is a directory of immutable columnar files whose index is the existing
// ChunkSummary, and retention within a tier is per core::Priority class
// (critical raw outlives bulk raw). The Compactor (compactor.hpp) moves
// data down the ladder; this class owns the durable state machine.
//
// Durability protocol (DESIGN.md "Tiered retention"): every transition is
// journaled with the WAL idiom — a write-ahead intent record names the
// destination and sources, the destination is built as <path>.tmp, fsynced,
// and atomically renamed, a commit record makes the transition real (one
// commit covers ALL files of a hot-ingest pass plus the eviction watermark,
// so a crash can never acknowledge half a pass), and source deletion is
// recorded before the unlinks with a cleaned marker after. open() replays
// the journal: uncommitted intents roll back (dest unlinked, sources kept),
// committed-but-uncleaned deletions re-run (idempotent), stray .tmp files
// are removed, and every surviving tier file's index is CRC-verified —
// files that fail are quarantined (renamed *.corrupt), never served.
//
// Tier file format ('HPTF', host-endian, version 1):
//   header:  u32 magic | u32 version | u32 tier | u32 cls | u64 seq |
//            i64 resolution_us | i64 min_time | i64 max_time |
//            u32 entry_count | u32 index_crc
//   index:   entry_count records, sorted by (series, min_time):
//            u32 series | u64 count | i64 min_time | i64 max_time |
//            f64 sum | f64 min | f64 max | f64 first | f64 last |
//            u64 offset | u32 payload_len | u32 payload_crc
//   data:    Chunk::serialize() payloads at the recorded offsets
// index_crc covers header (with the crc field zeroed) + index, so any
// single-byte flip in either is detected at load; payload_crc guards each
// chunk and is checked on every entry read (typed kCorruption on mismatch).
//
// Dual-summary semantics — the honest part: an entry's index summary always
// describes the ORIGINAL raw samples the entry derives from (count/sum/min/
// max/first/last compose exactly through compactions via time-ordered
// ChunkSummary::merge), while the entry's chunk payload stores the
// downsampled bucket values. Aggregates over windows that fully cover an
// entry are therefore EXACT against raw history no matter how coarse the
// tier; only window-boundary entries fall back to the stored bucket points
// (approximate within downsample semantics, e.g. mean-of-means).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/fsfault.hpp"
#include "core/ids.hpp"
#include "core/priority.hpp"
#include "core/result.hpp"
#include "core/series_buffer.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"
#include "store/chunk.hpp"
#include "store/summary.hpp"

namespace hpcmon::store {

/// One rung of the retention ladder.
struct TierSpec {
  core::Duration resolution = 0;  // bucket width; 0 = raw (tier 0 only)
  Agg agg = Agg::kMean;           // bucket reduction applied when aging IN
  /// Retention per priority class, indexed by core::Priority: data older
  /// than keep[cls] ages into the next tier (or expires from the last).
  std::array<core::Duration, core::kPriorityClasses> keep{};
};

struct TierPolicy {
  std::vector<TierSpec> tiers;  // tier 0 (raw) first; coarser downward

  /// raw 2d/1d/6h → 10s 7d/3d/1d → 5min 90d/30d/7d → 1h 400d/365d/90d
  /// (critical / standard / bulk) — the paper's "year of telemetry".
  static TierPolicy standard();
};

/// One series' chunk inside a tier file. `summary` and the time bounds
/// describe the ORIGINAL raw samples (see header comment).
struct TierEntry {
  core::SeriesId series{0};
  core::TimePoint min_time = 0;
  core::TimePoint max_time = 0;
  ChunkSummary summary;
  std::uint64_t offset = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// An immutable, index-verified tier file. Entry payloads are read (and
/// CRC-checked) on demand; the index lives in memory.
class TierFile {
 public:
  struct Meta {
    std::uint32_t tier = 0;
    std::uint32_t cls = 0;  // core::Priority of every series in the file
    std::uint64_t seq = 0;
    core::Duration resolution = 0;
    core::TimePoint min_time = 0;
    core::TimePoint max_time = 0;
  };

  /// Open `path`, verify magic/version/index CRC, load the index. Returns
  /// kCorruption for any integrity failure (never a partially-loaded file).
  static core::Result<std::shared_ptr<const TierFile>> load(std::string path);

  const Meta& meta() const { return meta_; }
  const std::vector<TierEntry>& entries() const { return entries_; }
  const std::string& path() const { return path_; }
  std::uint64_t bytes() const { return bytes_; }

  /// Entries of `series` overlapping [range.begin, range.end), in time
  /// order (the index is sorted by (series, min_time)).
  std::vector<const TierEntry*> find(core::SeriesId series,
                                     const core::TimeRange& range) const;

  /// Read + CRC-verify + decode-validate one entry's chunk. kCorruption on
  /// any mismatch; a bit flip anywhere in the payload is detected here.
  core::Result<Chunk> load_chunk(const TierEntry& e) const;

 private:
  friend class TierStore;
  TierFile() = default;

  std::string path_;
  Meta meta_;
  std::vector<TierEntry> entries_;
  std::uint64_t bytes_ = 0;
};

/// A destination tier file to be written in one durable transaction.
struct TierWriteSpec {
  std::uint32_t tier = 0;
  std::uint32_t cls = 0;
  struct SeriesChunk {
    core::SeriesId series{0};
    core::TimePoint min_time = 0;  // raw-sample bounds
    core::TimePoint max_time = 0;
    ChunkSummary summary;                  // raw-sample stats
    std::vector<std::uint8_t> payload;     // Chunk::serialize() output
  };
  std::vector<SeriesChunk> chunks;  // sorted by (series, min_time)
};

class TierStore {
 public:
  struct Options {
    std::string dir;  // tier files live in <dir>/t<k>/, journal in <dir>/
    TierPolicy policy = TierPolicy::standard();
    /// Consulted before every physical fs op (tests wire a FaultPlan).
    core::FsFaultInjector* faults = nullptr;
  };

  explicit TierStore(Options opts);

  /// Recover durable state: replay the journal, roll back / re-run as
  /// described above, verify + publish every tier file, rewrite a compact
  /// journal. NOT fault-injected (it is idempotent: a crash during open()
  /// is recovered by the next open()). Must be called before anything else.
  core::Status open();

  /// True once an injected kCrash killed this instance: durable state is
  /// whatever reached disk, every further mutation refuses, and tests
  /// construct a fresh TierStore on the same dir to model the restart.
  bool crashed() const;

  /// Eviction watermark: every sample with time < watermark() is durable in
  /// some tier. The stack drops WAL-replayed samples below it, and the hot
  /// store is only evicted behind it. INT64_MIN until the first commit.
  core::TimePoint watermark() const;

  // ---- durable transactions (driven by the Compactor) ----

  /// Hot ingest: write one tier-0 file per WriteSpec, then ONE commit
  /// record covering all of them + the new watermark. On any failure the
  /// transaction aborts with sources (the hot store) untouched. `specs` may
  /// be empty to advance the watermark alone.
  core::Status ingest_hot(const std::vector<TierWriteSpec>& specs,
                          core::TimePoint new_watermark);

  /// Aging: replace `srcs` (all one tier+class) with `dest` one tier down
  /// the ladder. Publish is atomic; sources are unlinked only after commit
  /// (a failed unlink is retried, never blocks the transaction).
  core::Status age(const std::vector<std::shared_ptr<const TierFile>>& srcs,
                   const TierWriteSpec& dest);

  /// Expiry from the last tier: durably record the deletion, unpublish,
  /// unlink.
  core::Status expire(
      const std::vector<std::shared_ptr<const TierFile>>& srcs);

  /// Retry pending source unlinks and heal a poisoned journal (atomic
  /// rewrite). Called at the top of every compactor pass; fault-injected.
  core::Status maintain();

  // ---- read path (mirrors TimeSeriesStore; see header for semantics) ----

  std::vector<core::TimedValue> query_range(core::SeriesId series,
                                            const core::TimeRange& range) const;
  std::optional<core::TimedValue> latest(core::SeriesId series) const;
  std::optional<double> aggregate(core::SeriesId series,
                                  const core::TimeRange& range, Agg agg) const;
  std::vector<core::TimedValue> downsample(core::SeriesId series,
                                           const core::TimeRange& range,
                                           core::Duration bucket,
                                           Agg agg) const;
  std::size_t scan(core::SeriesId series, const core::TimeRange& range,
                   const std::function<bool(const core::TimedValue&)>& visit)
      const;

  // ---- introspection ----

  const TierPolicy& policy() const { return opts_.policy; }
  /// Snapshot of the published files of one tier (optionally one class).
  std::vector<std::shared_ptr<const TierFile>> files(std::uint32_t tier) const;
  std::vector<std::shared_ptr<const TierFile>> files(std::uint32_t tier,
                                                     std::uint32_t cls) const;
  std::uint64_t disk_bytes() const;
  std::size_t file_count() const;
  std::size_t quarantined_count() const;

  /// Catalog tier.* instruments (files/bytes gauges, load + quarantine +
  /// journal counters).
  void attach_to(obs::ObsRegistry& registry) const;

  ~TierStore();
  TierStore(const TierStore&) = delete;
  TierStore& operator=(const TierStore&) = delete;

 private:
  struct SrcId {
    std::uint32_t tier = 0;
    std::uint32_t cls = 0;
    std::uint64_t seq = 0;
  };
  struct PendingCleanup {
    std::uint64_t op = 0;
    std::vector<SrcId> srcs;
  };

  // Journal plumbing (tier.cpp).
  core::Status journal_append_locked(const std::vector<std::uint8_t>& payload);
  core::Status rewrite_journal_locked();
  std::string journal_path() const;
  std::string tier_dir(std::uint32_t tier) const;
  std::string file_path(std::uint32_t tier, std::uint32_t cls,
                        std::uint64_t seq) const;

  // Fault-aware physical ops; each returns the injected (or real) outcome
  // and flips crashed_ on kCrash.
  core::Status write_file_locked(const std::string& path,
                                 const std::vector<std::uint8_t>& bytes);
  core::Status rename_locked(const std::string& from, const std::string& to);
  core::Status unlink_locked(const std::string& path);
  core::FsFault consult_locked(core::FsOp op);

  core::Status write_tier_file_locked(const TierWriteSpec& spec,
                                      std::uint64_t seq, std::uint64_t op_id,
                                      std::shared_ptr<const TierFile>* out);
  void publish_locked(std::shared_ptr<const TierFile> f);
  void unpublish_locked(const TierFile& f);
  core::Status cleanup_srcs_locked(std::uint64_t op_id,
                                   std::vector<SrcId> srcs);

  /// All published files overlapping `series`'s entries, every tier, sorted
  /// per-series by entry min_time. Snapshot under mu_, decode outside.
  std::vector<std::pair<std::shared_ptr<const TierFile>, const TierEntry*>>
  entries_for(core::SeriesId series, const core::TimeRange& range) const;

  void refresh_gauges_locked();

  Options opts_;
  mutable std::mutex mu_;
  bool opened_ = false;
  bool crashed_ = false;
  bool journal_poisoned_ = false;
  std::FILE* journal_ = nullptr;
  core::TimePoint watermark_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_op_ = 1;
  std::vector<std::vector<std::shared_ptr<const TierFile>>> files_;  // [tier]
  std::vector<PendingCleanup> pending_;
  std::size_t quarantined_ = 0;

  mutable obs::Counter entry_loads_;
  mutable obs::Counter load_failures_;
  mutable obs::Counter journal_records_;
  mutable obs::Counter quarantined_files_;
  mutable obs::Gauge files_gauge_;
  mutable obs::Gauge bytes_gauge_;
};

/// Merged read view over the tier ladder plus a hot store (TimeSeriesStore
/// or ingest::ShardedTimeSeriesStore — anything with the store query
/// surface). Satisfies the same surface itself, so serve's
/// bind_query_hooks() binds it directly and dashboards span "now" back
/// through every tier without knowing tiers exist. Tier data is strictly
/// older than the hot store (eviction happens behind the durable watermark)
/// except for a transient window right after a commit, where a point can
/// briefly exist on both sides.
///
/// Reads stay exact while a compactor on another thread moves chunks across
/// the seam. The compactor commits a chunk to a tier before evicting it, and
/// evicts each series' oldest chunks first. query_range therefore reads hot
/// before tiers (a chunk evicted in between is already in a tier; the
/// duplicate resolves in favor of hot). aggregate and downsample cannot
/// dedup, so they ask tiers only for [range.begin, seam), where the seam is
/// the oldest hot point in range, and retry if the seam moved meanwhile.
template <typename Hot>
class TierSpanView {
 public:
  TierSpanView(const TierStore* tiers, const Hot* hot)
      : tiers_(tiers), hot_(hot) {}

  std::vector<core::TimedValue> query_range(core::SeriesId series,
                                            const core::TimeRange& range) const {
    auto hot = hot_->query_range(series, range);
    auto cold = tiers_->query_range(series, range);
    if (cold.empty()) return hot;
    std::vector<core::TimedValue> out;
    out.reserve(cold.size() + hot.size());
    std::size_t i = 0, j = 0;
    while (i < cold.size() && j < hot.size()) {
      if (cold[i].time < hot[j].time) {
        out.push_back(cold[i++]);
      } else if (hot[j].time < cold[i].time) {
        out.push_back(hot[j++]);
      } else {
        out.push_back(hot[j++]);  // hot wins the duplicate
        ++i;
      }
    }
    for (; i < cold.size(); ++i) out.push_back(cold[i]);
    for (; j < hot.size(); ++j) out.push_back(hot[j]);
    return out;
  }

  std::optional<core::TimedValue> latest(core::SeriesId series) const {
    if (auto h = hot_->latest(series)) return h;
    return tiers_->latest(series);
  }

  std::optional<double> aggregate(core::SeriesId series,
                                  const core::TimeRange& range,
                                  Agg agg) const {
    if (agg == Agg::kMean) {
      const auto sum = aggregate(series, range, Agg::kSum);
      const auto cnt = aggregate(series, range, Agg::kCount);
      if (!sum || !cnt || *cnt == 0.0) return std::nullopt;
      return *sum / *cnt;
    }
    std::optional<double> cold;
    std::optional<double> hot;
    at_seam(series, range, [&](const core::TimeRange& tier_range) {
      cold = tiers_->aggregate(series, tier_range, agg);
      hot = hot_->aggregate(series, range, agg);
    });
    if (!cold) return hot;
    if (!hot) return cold;
    switch (agg) {
      case Agg::kSum:
      case Agg::kCount: return *cold + *hot;
      case Agg::kMin: return std::min(*cold, *hot);
      case Agg::kMax: return std::max(*cold, *hot);
      case Agg::kLast: return *hot;  // hot data is newer
      case Agg::kMean: break;        // handled above
    }
    return std::nullopt;
  }

  std::vector<core::TimedValue> downsample(core::SeriesId series,
                                           const core::TimeRange& range,
                                           core::Duration bucket,
                                           Agg agg) const {
    std::vector<core::TimedValue> cold;
    std::vector<core::TimedValue> hot;
    at_seam(series, range, [&](const core::TimeRange& tier_range) {
      cold = tiers_->downsample(series, tier_range, bucket, agg);
      hot = hot_->downsample(series, range, bucket, agg);
    });
    if (cold.empty()) return hot;
    if (hot.empty()) return cold;
    // Tier data precedes hot data; at most the boundary bucket collides.
    std::vector<core::TimedValue> out;
    out.reserve(cold.size() + hot.size());
    std::size_t i = 0, j = 0;
    while (i < cold.size() && j < hot.size()) {
      if (cold[i].time < hot[j].time) {
        out.push_back(cold[i++]);
      } else if (hot[j].time < cold[i].time) {
        out.push_back(hot[j++]);
      } else {
        out.push_back(merge_bucket(series, cold[i], hot[j], bucket, agg));
        ++i;
        ++j;
      }
    }
    for (; i < cold.size(); ++i) out.push_back(cold[i]);
    for (; j < hot.size(); ++j) out.push_back(hot[j]);
    return out;
  }

  std::size_t scan(core::SeriesId series, const core::TimeRange& range,
                   const std::function<bool(const core::TimedValue&)>& visit)
      const {
    // Tiers first (older), then hot; duplicates at the seam are suppressed
    // the same way query_range resolves them.
    const auto pts = query_range(series, range);
    std::size_t n = 0;
    for (const auto& p : pts) {
      ++n;
      if (!visit(p)) break;
    }
    return n;
  }

 private:
  /// Oldest hot point of `series` in `range`, or range.end if none.
  core::TimePoint hot_front(core::SeriesId series,
                            const core::TimeRange& range) const {
    core::TimePoint front = range.end;
    hot_->scan(series, range, [&front](const core::TimedValue& v) {
      front = v.time;
      return false;
    });
    return front;
  }

  /// Run `read(tier_range)` with tier_range = [range.begin, seam). The hot
  /// store holds nothing in range before the seam and can gain nothing
  /// there, so hot reads keep `range`. An unchanged seam afterwards proves
  /// no chunk crossed it mid-read; a moved seam retries.
  template <typename Read>
  void at_seam(core::SeriesId series, const core::TimeRange& range,
               Read&& read) const {
    for (;;) {
      const auto seam = hot_front(series, range);
      read(core::TimeRange{range.begin, seam});
      if (hot_front(series, range) == seam) return;
    }
  }

  core::TimedValue merge_bucket(core::SeriesId series,
                                const core::TimedValue& cold,
                                const core::TimedValue& hot,
                                core::Duration bucket, Agg agg) const {
    switch (agg) {
      case Agg::kSum:
      case Agg::kCount: return {cold.time, cold.value + hot.value};
      case Agg::kMin: return {cold.time, std::min(cold.value, hot.value)};
      case Agg::kMax: return {cold.time, std::max(cold.value, hot.value)};
      case Agg::kLast: return hot;
      case Agg::kMean: {
        // Recompute the one collided bucket from both sides' sums/counts.
        const core::TimeRange r{cold.time, cold.time + bucket};
        const auto sum = aggregate(series, r, Agg::kSum);
        const auto cnt = aggregate(series, r, Agg::kCount);
        if (sum && cnt && *cnt > 0.0) return {cold.time, *sum / *cnt};
        return hot;
      }
    }
    return hot;
  }

  const TierStore* tiers_;
  const Hot* hot_;
};

}  // namespace hpcmon::store
