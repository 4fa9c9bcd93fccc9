// Segmented write-ahead log for the ingest path.
//
// The paper's sites repeatedly lost analyses to monitoring that was not
// trustworthy across restarts (Sec. IV; Table I "Data Storage": stores must
// be dependable, "always on"). hpcmon's hot store is in-memory, so a crash
// loses every hot sample not yet compacted into a tier file. The WAL closes that hole:
// every sample frame is appended (CRC32-framed) to an append-only segment
// file *before* it is considered ingested; on restart, replay() restores the
// un-persisted samples into the store, byte-identical to an uninterrupted
// run (duplicate suppression falls out of the store's strictly-increasing
// per-series timestamps).
//
// On-disk format (host-endian, like the tier files):
//   segment file "wal-%08llu.seg":
//     [u32 magic 'HPWL'][u32 version]
//     record*: [u32 payload_len][u32 crc32(payload)][payload]
//   payload = the binary transport codec's SampleBatch encoding
//             (transport::encode_samples), so the WAL reuses the documented
//             wire format instead of inventing a second one.
//
// Failure semantics on replay:
//   * torn tail (partial trailing record, e.g. crash mid-write): tolerated —
//     scanning stops at the tear, everything before it is restored, and the
//     tear is counted (torn_tails);
//   * CRC mismatch with an intact length header: the record is skipped and
//     counted (corrupt_skipped); scanning resumes at the next record;
//   * bad segment header: the whole segment is skipped and counted.
//
// Appends fwrite+fflush each record so a crashed *process* loses nothing
// already acknowledged (media-level fsync durability is out of scope for the
// simulation substrate and called out in DESIGN.md). Rotation starts a new
// segment once the active one exceeds segment_bytes; truncate_before()
// deletes sealed segments whose newest sample is older than a durability
// watermark (the tier watermark after each compaction pass).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "core/sample.hpp"
#include "obs/registry.hpp"
#include "resilience/fault.hpp"
#include "transport/codec.hpp"

namespace hpcmon::resilience {

struct WalOptions {
  std::string dir;                       // segment directory (created if absent)
  std::size_t segment_bytes = 1u << 20;  // rotate past this size
  FaultPlan* faults = nullptr;           // optional file-layer fault injection
};

/// Typed view over the WAL's obs instruments (see WriteAheadLog::attach_to).
struct WalStats {
  std::uint64_t appended_records = 0;
  std::uint64_t appended_samples = 0;
  std::uint64_t appended_bytes = 0;
  std::uint64_t append_failures = 0;  // injected/real I/O errors, short writes
  std::uint64_t segments_created = 0;
  std::uint64_t segments_truncated = 0;
};

struct ReplayStats {
  std::uint64_t segments = 0;
  std::uint64_t records = 0;
  std::uint64_t samples = 0;
  std::uint64_t corrupt_skipped = 0;  // CRC-mismatched records skipped
  std::uint64_t torn_tails = 0;       // partial trailing records tolerated
  std::uint64_t bad_segments = 0;     // unreadable/garbled segment headers
  std::string to_string() const;
};

class WriteAheadLog {
 public:
  /// Opens `opts.dir` (creating it if needed) and starts a fresh segment
  /// after the highest existing index; pre-existing segments are treated as
  /// sealed (replayable, truncatable) and never appended to.
  explicit WriteAheadLog(WalOptions opts);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Append one encoded sample frame (transport::encode_samples) as a
  /// CRC-framed record holding its payload unchanged (empty batches are a
  /// no-op); a malformed frame (transport::inspect_samples) is refused with
  /// kCorruption and writes nothing. The record is flushed before returning.
  /// I/O errors (real or injected) are counted; an injected short write
  /// leaves a torn tail and poisons the log (subsequent appends fail),
  /// simulating a crash mid-record.
  core::Status append(const transport::Frame& frame);

  /// Flush the active segment's stdio buffer.
  core::Status sync();

  /// Crash drill: write a deliberately torn record (length header promises
  /// more bytes than are written) and poison the log. Replay must tolerate
  /// the tear.
  void simulate_torn_tail();

  /// Recover a poisoned log: seal the damaged active segment (replay already
  /// tolerates its torn tail) and open a fresh one, clearing the poison on
  /// success. Appending after a tear must go to a NEW segment — anything
  /// written after a torn record in the same file would be unreachable to
  /// replay. No-op-ish on a healthy log: the active segment just rotates.
  /// The storm-mode self-heal loop calls this; sites can too, after an
  /// operator clears a disk fault.
  core::Status rotate();

  /// Delete sealed segments whose newest sample time is < cutoff. The
  /// active segment is never deleted. Returns segments removed.
  std::size_t truncate_before(core::TimePoint cutoff);

  WalStats stats() const;
  /// Catalog the WAL's instruments as resilience.wal_* in `registry`.
  void attach_to(obs::ObsRegistry& registry) const;
  std::size_t sealed_segments() const { return sealed_.size(); }
  std::uint64_t active_segment_index() const { return active_index_; }
  bool poisoned() const { return dead_; }

  /// Scan every segment in `dir` in index order, invoking `apply` for each
  /// intact record's decoded batch. Safe on a directory with a torn tail or
  /// corrupted records (see header comment). Missing dir = empty replay.
  static ReplayStats replay(
      const std::string& dir,
      const std::function<void(core::SampleBatch&&)>& apply);

 private:
  struct Sealed {
    std::uint64_t index = 0;
    std::string path;
    core::TimePoint max_time = INT64_MIN;
  };

  std::string segment_path(std::uint64_t index) const;
  core::Status open_segment(std::uint64_t index);
  void seal_active();

  WalOptions opts_;
  std::FILE* file_ = nullptr;
  std::size_t file_bytes_ = 0;
  std::uint64_t active_index_ = 0;
  core::TimePoint active_max_time_ = INT64_MIN;
  std::vector<Sealed> sealed_;  // ascending index order
  obs::Counter appended_records_;
  obs::Counter appended_samples_;
  obs::Counter appended_bytes_;
  obs::Counter append_failures_;
  obs::Counter segments_created_;
  obs::Counter segments_truncated_;
  bool dead_ = false;
};

}  // namespace hpcmon::resilience
