#include "store/tier.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "core/crc32.hpp"
#include "store/cursor.hpp"

namespace hpcmon::store {
namespace fs = std::filesystem;
using core::FsFault;
using core::FsOp;
using core::Result;
using core::Status;

namespace {

constexpr std::uint32_t kTierMagic = 0x46545048;     // "HPTF"
constexpr std::uint32_t kTierVersion = 1;
constexpr std::uint32_t kJournalMagic = 0x4A435048;  // "HPCJ"
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::size_t kHeaderBytes = 56;
constexpr std::size_t kEntryBytes = 84;
constexpr std::size_t kIndexCrcOffset = 52;  // last header field

enum JournalType : std::uint8_t {
  kIntent = 1,   // op, dest (tier, cls, seq), srcs
  kCommit = 2,   // watermark (INT64_MIN = unchanged), ops
  kCleaned = 3,  // op (all of the op's source unlinks completed)
  kDelete = 4,   // op, srcs (expiry: deletion recorded ahead of unlinks)
};

struct FileId {
  std::uint32_t tier = 0;
  std::uint32_t cls = 0;
  std::uint64_t seq = 0;
};

// Fixed-layout little-helper codec (host-endian, like every other on-disk
// format in the repo).
struct Buf {
  std::vector<std::uint8_t> b;
  void put(const void* p, std::size_t n) {
    const auto* c = static_cast<const std::uint8_t*>(p);
    b.insert(b.end(), c, c + n);
  }
  void u8(std::uint8_t v) { put(&v, 1); }
  void u32(std::uint32_t v) { put(&v, 4); }
  void u64(std::uint64_t v) { put(&v, 8); }
  void i64(std::int64_t v) { put(&v, 8); }
  void f64(double v) { put(&v, 8); }
};

struct Reader {
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  std::size_t off = 0;
  bool fail = false;

  bool get(void* d, std::size_t k) {
    if (fail || off + k > n) {
      fail = true;
      return false;
    }
    std::memcpy(d, p + off, k);
    off += k;
    return true;
  }
  std::uint8_t u8() { std::uint8_t v = 0; get(&v, 1); return v; }
  std::uint32_t u32() { std::uint32_t v = 0; get(&v, 4); return v; }
  std::uint64_t u64() { std::uint64_t v = 0; get(&v, 8); return v; }
  std::int64_t i64() { std::int64_t v = 0; get(&v, 8); return v; }
  double f64() { double v = 0; get(&v, 8); return v; }
};

}  // namespace

// ---------------------------------------------------------------- TierFile

Result<std::shared_ptr<const TierFile>> TierFile::load(std::string path) {
  using R = Result<std::shared_ptr<const TierFile>>;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return R(Status::error("tier: cannot open " + path));
  std::fseek(f, 0, SEEK_END);
  const long fsize = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (fsize < static_cast<long>(kHeaderBytes)) {
    std::fclose(f);
    return R(Status::corruption("tier: truncated header in " + path));
  }
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(fsize));
  const bool read_ok = std::fread(buf.data(), 1, buf.size(), f) == buf.size();
  std::fclose(f);
  if (!read_ok) return R(Status::error("tier: cannot read " + path));

  Reader r{buf.data(), buf.size()};
  auto file = std::shared_ptr<TierFile>(new TierFile());
  const auto magic = r.u32();
  const auto version = r.u32();
  file->meta_.tier = r.u32();
  file->meta_.cls = r.u32();
  file->meta_.seq = r.u64();
  file->meta_.resolution = r.i64();
  file->meta_.min_time = r.i64();
  file->meta_.max_time = r.i64();
  const auto entry_count = r.u32();
  const auto stored_crc = r.u32();
  if (r.fail || magic != kTierMagic || version != kTierVersion) {
    return R(Status::corruption("tier: bad magic/version in " + path));
  }
  const std::size_t index_end =
      kHeaderBytes + static_cast<std::size_t>(entry_count) * kEntryBytes;
  if (index_end > buf.size()) {
    return R(Status::corruption("tier: truncated index in " + path));
  }
  // index_crc covers header (crc field excluded) + index.
  std::uint32_t crc = core::crc32(buf.data(), kIndexCrcOffset);
  crc = core::crc32(buf.data() + kHeaderBytes, index_end - kHeaderBytes, crc);
  if (crc != stored_crc) {
    return R(Status::corruption("tier: index CRC mismatch in " + path));
  }
  if (file->meta_.cls >= core::kPriorityClasses ||
      file->meta_.min_time > file->meta_.max_time) {
    return R(Status::corruption("tier: invalid metadata in " + path));
  }
  file->entries_.reserve(entry_count);
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    TierEntry e;
    e.series = core::SeriesId{r.u32()};
    e.summary.count = r.u64();
    e.min_time = r.i64();
    e.max_time = r.i64();
    e.summary.sum = r.f64();
    e.summary.min = r.f64();
    e.summary.max = r.f64();
    e.summary.first = r.f64();
    e.summary.last = r.f64();
    e.offset = r.u64();
    e.payload_len = r.u32();
    e.payload_crc = r.u32();
    if (r.fail || e.offset < index_end || e.offset + e.payload_len > buf.size() ||
        e.min_time > e.max_time || e.summary.count == 0) {
      return R(Status::corruption("tier: invalid index entry in " + path));
    }
    file->entries_.push_back(e);
  }
  file->path_ = std::move(path);
  file->bytes_ = buf.size();
  return R(std::shared_ptr<const TierFile>(std::move(file)));
}

std::vector<const TierEntry*> TierFile::find(core::SeriesId series,
                                             const core::TimeRange& range)
    const {
  std::vector<const TierEntry*> out;
  if (range.begin >= range.end) return out;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), series,
      [](const TierEntry& e, core::SeriesId s) {
        return core::raw(e.series) < core::raw(s);
      });
  for (; it != entries_.end() && core::raw(it->series) == core::raw(series);
       ++it) {
    if (it->min_time < range.end && range.begin <= it->max_time) {
      out.push_back(&*it);
    }
  }
  return out;
}

Result<Chunk> TierFile::load_chunk(const TierEntry& e) const {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return Result<Chunk>::error("tier: cannot open " + path_);
  std::vector<std::uint8_t> raw(e.payload_len);
  const bool ok =
      std::fseek(f, static_cast<long>(e.offset), SEEK_SET) == 0 &&
      std::fread(raw.data(), 1, raw.size(), f) == raw.size();
  std::fclose(f);
  if (!ok) return Result<Chunk>::error("tier: cannot read entry in " + path_);
  if (core::crc32(raw.data(), raw.size()) != e.payload_crc) {
    return Result<Chunk>(
        Status::corruption("tier: payload CRC mismatch in " + path_));
  }
  Chunk c = Chunk::deserialize(raw);
  if (c.empty()) {
    return Result<Chunk>(
        Status::corruption("tier: payload failed decode validation in " +
                           path_));
  }
  return Result<Chunk>(std::move(c));
}

// --------------------------------------------------------------- TierStore

TierStore::TierStore(Options opts)
    : opts_(std::move(opts)), watermark_(INT64_MIN) {
  files_.resize(opts_.policy.tiers.size());
}

TierStore::~TierStore() {
  std::scoped_lock lock(mu_);
  if (journal_ != nullptr) std::fclose(journal_);
}

std::string TierStore::journal_path() const {
  return opts_.dir + "/compact.journal";
}

std::string TierStore::tier_dir(std::uint32_t tier) const {
  return opts_.dir + "/t" + std::to_string(tier);
}

std::string TierStore::file_path(std::uint32_t tier, std::uint32_t cls,
                                 std::uint64_t seq) const {
  char name[64];
  std::snprintf(name, sizeof(name), "tier-%08" PRIu64 "-c%u.tf", seq, cls);
  return tier_dir(tier) + "/" + name;
}

bool TierStore::crashed() const {
  std::scoped_lock lock(mu_);
  return crashed_;
}

core::TimePoint TierStore::watermark() const {
  std::scoped_lock lock(mu_);
  return watermark_;
}

core::FsFault TierStore::consult_locked(FsOp op) {
  if (opts_.faults == nullptr || !opened_) return FsFault::kNone;
  const auto f = opts_.faults->fs_fault(op);
  if (f == FsFault::kCrash) crashed_ = true;
  return f;
}

Status TierStore::write_file_locked(const std::string& path,
                                    const std::vector<std::uint8_t>& bytes) {
  switch (consult_locked(FsOp::kOpen)) {
    case FsFault::kNone: break;
    case FsFault::kCrash: return Status::error("tier: crashed at open");
    case FsFault::kEnospc: return Status::error("tier: injected ENOSPC (open)");
    default: return Status::error("tier: injected open error");
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::error("tier: cannot open " + path);
  switch (consult_locked(FsOp::kWrite)) {
    case FsFault::kNone: break;
    case FsFault::kCrash:
      // Die mid-write: half the bytes reach disk, nothing is cleaned up.
      std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
      std::fclose(f);
      return Status::error("tier: crashed at write");
    case FsFault::kShortWrite:
      std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
      std::fclose(f);
      std::remove(path.c_str());  // still alive: abort cleans its torn temp
      return Status::error("tier: injected short write");
    case FsFault::kEnospc:
      std::fclose(f);
      std::remove(path.c_str());
      return Status::error("tier: injected ENOSPC (write)");
    default:
      std::fclose(f);
      std::remove(path.c_str());
      return Status::error("tier: injected write error");
  }
  if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fclose(f);
    std::remove(path.c_str());
    return Status::error("tier: short write to " + path);
  }
  switch (consult_locked(FsOp::kFsync)) {
    case FsFault::kNone: break;
    case FsFault::kCrash:
      std::fclose(f);
      return Status::error("tier: crashed at fsync");
    case FsFault::kEnospc:
      std::fclose(f);
      std::remove(path.c_str());
      return Status::error("tier: injected ENOSPC (fsync)");
    default:
      std::fclose(f);
      std::remove(path.c_str());
      return Status::error("tier: injected fsync error");
  }
  const bool ok = std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(path.c_str());
    return Status::error("tier: fsync failed for " + path);
  }
  return Status::ok();
}

Status TierStore::rename_locked(const std::string& from,
                                const std::string& to) {
  // An injected kCrash here models crash-BEFORE-rename (the rename never
  // happens). Crash-AFTER-rename is exactly a kCrash at the next fs op, so
  // the crash matrix covers both sides by sweeping the op index.
  switch (consult_locked(FsOp::kRename)) {
    case FsFault::kNone: break;
    case FsFault::kCrash: return Status::error("tier: crashed at rename");
    default: return Status::error("tier: injected rename error");
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::error("tier: cannot rename " + from + " over " + to);
  }
  return Status::ok();
}

Status TierStore::unlink_locked(const std::string& path) {
  switch (consult_locked(FsOp::kUnlink)) {
    case FsFault::kNone: break;
    case FsFault::kCrash: return Status::error("tier: crashed at unlink");
    default: return Status::error("tier: injected unlink error");
  }
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    return Status::error("tier: cannot unlink " + path);
  }
  return Status::ok();
}

Status TierStore::journal_append_locked(
    const std::vector<std::uint8_t>& payload) {
  if (journal_ == nullptr) return Status::error("tier: journal not open");
  if (journal_poisoned_) return Status::error("tier: journal poisoned");
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = core::crc32(payload.data(), payload.size());
  switch (consult_locked(FsOp::kWrite)) {
    case FsFault::kNone: break;
    case FsFault::kCrash:
      // Torn journal record on disk; replay treats it as absent.
      std::fwrite(&len, 4, 1, journal_);
      std::fwrite(&crc, 4, 1, journal_);
      std::fwrite(payload.data(), 1, payload.size() / 2, journal_);
      std::fflush(journal_);
      return Status::error("tier: crashed at journal write");
    case FsFault::kShortWrite:
      std::fwrite(&len, 4, 1, journal_);
      std::fwrite(&crc, 4, 1, journal_);
      std::fwrite(payload.data(), 1, payload.size() / 2, journal_);
      std::fflush(journal_);
      journal_poisoned_ = true;  // tail is torn; heal by atomic rewrite
      return Status::error("tier: injected short journal write");
    case FsFault::kEnospc:
      return Status::error("tier: injected ENOSPC (journal)");
    default:
      return Status::error("tier: injected journal write error");
  }
  const bool wrote = std::fwrite(&len, 4, 1, journal_) == 1 &&
                     std::fwrite(&crc, 4, 1, journal_) == 1 &&
                     std::fwrite(payload.data(), 1, payload.size(),
                                 journal_) == payload.size() &&
                     std::fflush(journal_) == 0;
  if (!wrote) {
    journal_poisoned_ = true;
    return Status::error("tier: journal write failed");
  }
  switch (consult_locked(FsOp::kFsync)) {
    case FsFault::kNone: break;
    case FsFault::kCrash:
      // The record reached the file before the "crash": the durable state
      // is crash-after-append, which recovery must (and does) handle.
      return Status::error("tier: crashed at journal fsync");
    default:
      // Unknown durability — poison so the next pass rewrites atomically.
      journal_poisoned_ = true;
      return Status::error("tier: injected journal fsync error");
  }
  if (::fsync(fileno(journal_)) != 0) {
    journal_poisoned_ = true;
    return Status::error("tier: journal fsync failed");
  }
  journal_records_.add();
  return Status::ok();
}

namespace {

Buf encode_intent(std::uint64_t op, const FileId& dest,
                  const std::vector<FileId>& srcs) {
  Buf b;
  b.u8(kIntent);
  b.u64(op);
  b.u32(dest.tier);
  b.u32(dest.cls);
  b.u64(dest.seq);
  b.u32(static_cast<std::uint32_t>(srcs.size()));
  for (const auto& s : srcs) {
    b.u32(s.tier);
    b.u32(s.cls);
    b.u64(s.seq);
  }
  return b;
}

Buf encode_commit(core::TimePoint watermark,
                  const std::vector<std::uint64_t>& ops) {
  Buf b;
  b.u8(kCommit);
  b.i64(watermark);
  b.u32(static_cast<std::uint32_t>(ops.size()));
  for (const auto op : ops) b.u64(op);
  return b;
}

Buf encode_cleaned(std::uint64_t op) {
  Buf b;
  b.u8(kCleaned);
  b.u64(op);
  return b;
}

Buf encode_delete(std::uint64_t op, const std::vector<FileId>& srcs) {
  Buf b;
  b.u8(kDelete);
  b.u64(op);
  b.u32(static_cast<std::uint32_t>(srcs.size()));
  for (const auto& s : srcs) {
    b.u32(s.tier);
    b.u32(s.cls);
    b.u64(s.seq);
  }
  return b;
}

struct JournalState {
  struct Intent {
    FileId dest;
    std::vector<FileId> srcs;
  };
  std::map<std::uint64_t, Intent> intents;
  std::map<std::uint64_t, std::vector<FileId>> deletes;
  std::vector<std::uint64_t> committed;  // in commit order
  std::vector<std::uint64_t> cleaned;
  core::TimePoint watermark = INT64_MIN;
  std::uint64_t max_op = 0;
  std::uint64_t max_seq = 0;

  bool is_committed(std::uint64_t op) const {
    return std::find(committed.begin(), committed.end(), op) !=
           committed.end();
  }
  bool is_cleaned(std::uint64_t op) const {
    return std::find(cleaned.begin(), cleaned.end(), op) != cleaned.end();
  }
};

/// Parse the journal, tolerating a torn/corrupt tail (everything after the
/// first bad record is ignored — exactly the WAL replay posture).
JournalState parse_journal(const std::string& path) {
  JournalState js;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return js;
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (std::fread(&magic, 4, 1, f) != 1 || magic != kJournalMagic ||
      std::fread(&version, 4, 1, f) != 1 || version != kJournalVersion) {
    std::fclose(f);
    return js;
  }
  std::vector<std::uint8_t> payload;
  for (;;) {
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    if (std::fread(&len, 4, 1, f) != 1 || std::fread(&crc, 4, 1, f) != 1) {
      break;
    }
    if (len == 0 || len > (1u << 20)) break;  // implausible: torn tail
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, f) != len) break;
    if (core::crc32(payload.data(), len) != crc) break;
    Reader r{payload.data(), payload.size()};
    const auto type = r.u8();
    switch (type) {
      case kIntent: {
        const auto op = r.u64();
        JournalState::Intent in;
        in.dest.tier = r.u32();
        in.dest.cls = r.u32();
        in.dest.seq = r.u64();
        const auto n = r.u32();
        for (std::uint32_t i = 0; i < n && !r.fail; ++i) {
          FileId s;
          s.tier = r.u32();
          s.cls = r.u32();
          s.seq = r.u64();
          in.srcs.push_back(s);
        }
        if (r.fail) break;
        js.max_op = std::max(js.max_op, op);
        js.max_seq = std::max(js.max_seq, in.dest.seq);
        js.intents[op] = std::move(in);
        break;
      }
      case kCommit: {
        const auto wm = r.i64();
        const auto n = r.u32();
        std::vector<std::uint64_t> ops;
        for (std::uint32_t i = 0; i < n && !r.fail; ++i) {
          ops.push_back(r.u64());
        }
        if (r.fail) break;
        js.watermark = std::max(js.watermark, wm);
        for (const auto op : ops) js.committed.push_back(op);
        break;
      }
      case kCleaned: {
        const auto op = r.u64();
        if (r.fail) break;
        js.cleaned.push_back(op);
        break;
      }
      case kDelete: {
        const auto op = r.u64();
        const auto n = r.u32();
        std::vector<FileId> srcs;
        for (std::uint32_t i = 0; i < n && !r.fail; ++i) {
          FileId s;
          s.tier = r.u32();
          s.cls = r.u32();
          s.seq = r.u64();
          srcs.push_back(s);
        }
        if (r.fail) break;
        js.max_op = std::max(js.max_op, op);
        js.deletes[op] = std::move(srcs);
        break;
      }
      default:
        break;  // unknown type: skip (forward compatibility)
    }
  }
  std::fclose(f);
  return js;
}

}  // namespace

Status TierStore::open() {
  std::scoped_lock lock(mu_);
  if (opened_) return Status::error("tier: already open");
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  for (std::uint32_t k = 0; k < files_.size(); ++k) {
    fs::create_directories(tier_dir(k), ec);
  }
  if (ec) return Status::error("tier: cannot create " + opts_.dir);

  // 1. Replay the journal (recovery is NOT fault-injected: it is idempotent
  // and a crash during it is just another recovery on the next open()).
  const auto js = parse_journal(journal_path());
  watermark_ = js.watermark;
  next_op_ = js.max_op + 1;
  next_seq_ = js.max_seq + 1;
  const auto real_unlink = [](const std::string& p) { std::remove(p.c_str()); };
  for (const auto& [op, intent] : js.intents) {
    if (!js.is_committed(op)) {
      // Uncommitted intent: roll back — the destination (temp or renamed)
      // is deleted, the sources were never touched.
      const auto dest =
          file_path(intent.dest.tier, intent.dest.cls, intent.dest.seq);
      real_unlink(dest + ".tmp");
      real_unlink(dest);
    } else if (!js.is_cleaned(op)) {
      // Committed but not cleaned: re-run the source unlinks (idempotent).
      for (const auto& s : intent.srcs) {
        real_unlink(file_path(s.tier, s.cls, s.seq));
      }
    }
  }
  for (const auto& [op, srcs] : js.deletes) {
    if (!js.is_cleaned(op)) {
      for (const auto& s : srcs) real_unlink(file_path(s.tier, s.cls, s.seq));
    }
  }

  // 2. Scan the tier directories: drop stray temps, verify and publish
  // every tier file, quarantine files that fail their integrity checks.
  for (std::uint32_t k = 0; k < files_.size(); ++k) {
    std::vector<std::string> paths;
    for (const auto& de : fs::directory_iterator(tier_dir(k), ec)) {
      paths.push_back(de.path().string());
    }
    std::sort(paths.begin(), paths.end());  // deterministic publish order
    for (const auto& p : paths) {
      if (p.size() > 4 && p.substr(p.size() - 4) == ".tmp") {
        real_unlink(p);
        continue;
      }
      if (p.size() < 3 || p.substr(p.size() - 3) != ".tf") continue;
      auto loaded = TierFile::load(p);
      if (loaded.is_ok() && loaded.value()->meta().tier == k) {
        next_seq_ = std::max(next_seq_, loaded.value()->meta().seq + 1);
        files_[k].push_back(std::move(loaded).take());
      } else {
        std::rename(p.c_str(), (p + ".corrupt").c_str());
        ++quarantined_;
        quarantined_files_.add();
      }
    }
  }

  // 3. Rewrite a compact journal: just the watermark carrier (every pending
  // cleanup was re-run above), fsynced and atomically renamed into place.
  // Fault injection gates on opened_, so recovery I/O is never injected.
  const auto st = rewrite_journal_locked();
  if (!st.is_ok()) return st;
  opened_ = true;
  refresh_gauges_locked();
  return Status::ok();
}

Status TierStore::rewrite_journal_locked() {
  // Build the compacted journal: header + watermark carrier + a kDelete per
  // pending cleanup (so a crash cannot orphan a committed source file).
  Buf content;
  content.u32(kJournalMagic);
  content.u32(kJournalVersion);
  const auto add_record = [&content](const Buf& rec) {
    content.u32(static_cast<std::uint32_t>(rec.b.size()));
    content.u32(core::crc32(rec.b.data(), rec.b.size()));
    content.put(rec.b.data(), rec.b.size());
  };
  add_record(encode_commit(watermark_, {}));
  for (const auto& pc : pending_) {
    std::vector<FileId> ids;
    for (const auto& s : pc.srcs) ids.push_back({s.tier, s.cls, s.seq});
    add_record(encode_delete(pc.op, ids));
  }

  if (journal_ != nullptr) {
    std::fclose(journal_);
    journal_ = nullptr;
  }
  const auto path = journal_path();
  const auto tmp = path + ".tmp";
  auto st = write_file_locked(tmp, content.b);
  if (!st.is_ok()) return st;
  st = rename_locked(tmp, path);
  if (!st.is_ok()) {
    if (!crashed_) std::remove(tmp.c_str());
    return st;
  }
  journal_ = std::fopen(path.c_str(), "ab");
  if (journal_ == nullptr) {
    return Status::error("tier: cannot reopen journal");
  }
  journal_poisoned_ = false;
  return Status::ok();
}

Status TierStore::write_tier_file_locked(const TierWriteSpec& spec,
                                         std::uint64_t seq,
                                         std::uint64_t /*op_id*/,
                                         std::shared_ptr<const TierFile>* out) {
  if (spec.chunks.empty()) return Status::error("tier: empty write spec");
  if (spec.tier >= files_.size()) return Status::error("tier: bad tier");
  const std::size_t n = spec.chunks.size();
  const std::size_t index_end = kHeaderBytes + n * kEntryBytes;

  auto file = std::shared_ptr<TierFile>(new TierFile());
  file->meta_.tier = spec.tier;
  file->meta_.cls = spec.cls;
  file->meta_.seq = seq;
  file->meta_.resolution = opts_.policy.tiers[spec.tier].resolution;
  file->meta_.min_time = spec.chunks.front().min_time;
  file->meta_.max_time = spec.chunks.front().max_time;

  Buf body;  // payload region
  file->entries_.reserve(n);
  for (const auto& sc : spec.chunks) {
    TierEntry e;
    e.series = sc.series;
    e.min_time = sc.min_time;
    e.max_time = sc.max_time;
    e.summary = sc.summary;
    e.offset = index_end + body.b.size();
    e.payload_len = static_cast<std::uint32_t>(sc.payload.size());
    e.payload_crc = core::crc32(sc.payload.data(), sc.payload.size());
    body.put(sc.payload.data(), sc.payload.size());
    file->entries_.push_back(e);
    file->meta_.min_time = std::min(file->meta_.min_time, sc.min_time);
    file->meta_.max_time = std::max(file->meta_.max_time, sc.max_time);
  }

  Buf all;
  all.u32(kTierMagic);
  all.u32(kTierVersion);
  all.u32(file->meta_.tier);
  all.u32(file->meta_.cls);
  all.u64(file->meta_.seq);
  all.i64(file->meta_.resolution);
  all.i64(file->meta_.min_time);
  all.i64(file->meta_.max_time);
  all.u32(static_cast<std::uint32_t>(n));
  all.u32(0);  // index_crc patched below
  for (const auto& e : file->entries_) {
    all.u32(core::raw(e.series));
    all.u64(e.summary.count);
    all.i64(e.min_time);
    all.i64(e.max_time);
    all.f64(e.summary.sum);
    all.f64(e.summary.min);
    all.f64(e.summary.max);
    all.f64(e.summary.first);
    all.f64(e.summary.last);
    all.u64(e.offset);
    all.u32(e.payload_len);
    all.u32(e.payload_crc);
  }
  std::uint32_t crc = core::crc32(all.b.data(), kIndexCrcOffset);
  crc = core::crc32(all.b.data() + kHeaderBytes, index_end - kHeaderBytes,
                    crc);
  std::memcpy(all.b.data() + kIndexCrcOffset, &crc, 4);
  all.put(body.b.data(), body.b.size());

  const auto path = file_path(spec.tier, spec.cls, seq);
  const auto tmp = path + ".tmp";
  auto st = write_file_locked(tmp, all.b);
  if (!st.is_ok()) return st;
  st = rename_locked(tmp, path);
  if (!st.is_ok()) {
    if (!crashed_) std::remove(tmp.c_str());
    return st;
  }
  file->path_ = path;
  file->bytes_ = all.b.size();
  *out = std::move(file);
  return Status::ok();
}

void TierStore::publish_locked(std::shared_ptr<const TierFile> f) {
  files_[f->meta().tier].push_back(std::move(f));
}

void TierStore::unpublish_locked(const TierFile& f) {
  auto& vec = files_[f.meta().tier];
  for (auto it = vec.begin(); it != vec.end(); ++it) {
    if ((*it)->meta().seq == f.meta().seq &&
        (*it)->meta().cls == f.meta().cls) {
      vec.erase(it);
      return;
    }
  }
}

Status TierStore::cleanup_srcs_locked(std::uint64_t op_id,
                                      std::vector<SrcId> srcs) {
  std::vector<SrcId> remaining;
  for (const auto& s : srcs) {
    const auto st = unlink_locked(file_path(s.tier, s.cls, s.seq));
    if (!st.is_ok()) {
      if (crashed_) return st;
      remaining.push_back(s);
    }
  }
  if (!remaining.empty()) {
    // The transaction itself succeeded; the leftover unlinks are retried by
    // maintain() and re-run by recovery (the op has no kCleaned record).
    pending_.push_back({op_id, std::move(remaining)});
    return Status::ok();
  }
  // Best-effort: a failed kCleaned append only costs an idempotent re-unlink
  // at the next recovery.
  (void)journal_append_locked(encode_cleaned(op_id).b);
  return Status::ok();
}

Status TierStore::ingest_hot(const std::vector<TierWriteSpec>& specs,
                             core::TimePoint new_watermark) {
  std::scoped_lock lock(mu_);
  if (!opened_) return Status::error("tier: not open");
  if (crashed_) return Status::error("tier: crashed");
  if (journal_poisoned_) return Status::error("tier: journal poisoned");

  std::vector<std::uint64_t> ops;
  std::vector<std::shared_ptr<const TierFile>> written;
  const auto abort = [&](Status st) {
    if (!crashed_) {
      for (const auto& f : written) std::remove(f->path().c_str());
    }
    return st;
  };
  for (const auto& spec : specs) {
    if (spec.tier != 0) return abort(Status::error("tier: ingest targets t0"));
    const auto seq = next_seq_++;
    const auto op = next_op_++;
    auto st = journal_append_locked(
        encode_intent(op, {spec.tier, spec.cls, seq}, {}).b);
    if (!st.is_ok()) return abort(st);
    std::shared_ptr<const TierFile> f;
    st = write_tier_file_locked(spec, seq, op, &f);
    if (!st.is_ok()) return abort(st);
    written.push_back(std::move(f));
    ops.push_back(op);
  }
  // ONE commit covers every file of the pass plus the watermark: a crash
  // anywhere earlier rolls the whole pass back, so the hot store is never
  // evicted against a half-acknowledged compaction.
  const auto st = journal_append_locked(
      encode_commit(new_watermark, ops).b);
  if (!st.is_ok()) return abort(st);
  watermark_ = std::max(watermark_, new_watermark);
  for (auto& f : written) publish_locked(std::move(f));
  refresh_gauges_locked();
  return Status::ok();
}

Status TierStore::age(const std::vector<std::shared_ptr<const TierFile>>& srcs,
                      const TierWriteSpec& dest) {
  std::scoped_lock lock(mu_);
  if (!opened_) return Status::error("tier: not open");
  if (crashed_) return Status::error("tier: crashed");
  if (journal_poisoned_) return Status::error("tier: journal poisoned");
  if (srcs.empty()) return Status::error("tier: age without sources");

  const auto seq = next_seq_++;
  const auto op = next_op_++;
  std::vector<FileId> src_ids;
  std::vector<SrcId> src_refs;
  for (const auto& s : srcs) {
    src_ids.push_back({s->meta().tier, s->meta().cls, s->meta().seq});
    src_refs.push_back({s->meta().tier, s->meta().cls, s->meta().seq});
  }
  auto st = journal_append_locked(
      encode_intent(op, {dest.tier, dest.cls, seq}, src_ids).b);
  if (!st.is_ok()) return st;
  std::shared_ptr<const TierFile> f;
  st = write_tier_file_locked(dest, seq, op, &f);
  if (!st.is_ok()) return st;
  st = journal_append_locked(encode_commit(INT64_MIN, {op}).b);
  if (!st.is_ok()) {
    if (!crashed_) std::remove(f->path().c_str());
    return st;
  }
  // Atomic visibility swap: readers either see the sources or the
  // destination, never both and never neither.
  for (const auto& s : srcs) unpublish_locked(*s);
  publish_locked(std::move(f));
  refresh_gauges_locked();
  return cleanup_srcs_locked(op, std::move(src_refs));
}

Status TierStore::expire(
    const std::vector<std::shared_ptr<const TierFile>>& srcs) {
  std::scoped_lock lock(mu_);
  if (!opened_) return Status::error("tier: not open");
  if (crashed_) return Status::error("tier: crashed");
  if (journal_poisoned_) return Status::error("tier: journal poisoned");
  if (srcs.empty()) return Status::ok();

  const auto op = next_op_++;
  std::vector<FileId> src_ids;
  std::vector<SrcId> src_refs;
  for (const auto& s : srcs) {
    src_ids.push_back({s->meta().tier, s->meta().cls, s->meta().seq});
    src_refs.push_back({s->meta().tier, s->meta().cls, s->meta().seq});
  }
  const auto st = journal_append_locked(encode_delete(op, src_ids).b);
  if (!st.is_ok()) return st;
  for (const auto& s : srcs) unpublish_locked(*s);
  refresh_gauges_locked();
  return cleanup_srcs_locked(op, std::move(src_refs));
}

Status TierStore::maintain() {
  std::scoped_lock lock(mu_);
  if (!opened_) return Status::error("tier: not open");
  if (crashed_) return Status::error("tier: crashed");
  if (journal_poisoned_) {
    const auto st = rewrite_journal_locked();
    if (!st.is_ok()) return st;
  }
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& pc : pending) {
    const auto st = cleanup_srcs_locked(pc.op, std::move(pc.srcs));
    if (!st.is_ok()) return st;
  }
  return Status::ok();
}

// ------------------------------------------------------------- read path

std::vector<std::pair<std::shared_ptr<const TierFile>, const TierEntry*>>
TierStore::entries_for(core::SeriesId series,
                       const core::TimeRange& range) const {
  std::vector<std::pair<std::shared_ptr<const TierFile>, const TierEntry*>>
      out;
  {
    std::scoped_lock lock(mu_);
    for (const auto& tier : files_) {
      for (const auto& f : tier) {
        for (const auto* e : f->find(series, range)) {
          out.emplace_back(f, e);
        }
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second->min_time != b.second->min_time) {
      return a.second->min_time < b.second->min_time;
    }
    return a.second->payload_crc < b.second->payload_crc;
  });
  // A crash between a commit and the hot-store eviction legitimately tiers
  // the same chunk twice (WAL replay re-feeds it, a later pass re-tiers it
  // into a second file). Identical entries — same span, same count, same
  // payload bytes — are collapsed here so every read path (query,
  // aggregate, downsample, scan) sees each sample's custody exactly once.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const auto& a, const auto& b) {
                          return a.second->min_time == b.second->min_time &&
                                 a.second->max_time == b.second->max_time &&
                                 a.second->summary.count ==
                                     b.second->summary.count &&
                                 a.second->payload_crc == b.second->payload_crc;
                        }),
            out.end());
  return out;
}

std::vector<core::TimedValue> TierStore::query_range(
    core::SeriesId series, const core::TimeRange& range) const {
  std::vector<core::TimedValue> out;
  std::vector<core::TimedValue> scratch;  // reused batch-decode buffer
  for (const auto& [file, e] : entries_for(series, range)) {
    entry_loads_.add();
    auto chunk = file->load_chunk(*e);
    if (!chunk.is_ok()) {
      load_failures_.add();
      continue;
    }
    scratch.clear();
    decode_all(chunk.value(), scratch);
    for (const auto& p : scratch) {
      if (p.time >= range.begin && p.time < range.end) out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });
  // A crash between a commit and the hot-store eviction legitimately tiers
  // the same chunk twice (WAL replay re-feeds it and a later pass re-tiers
  // it). Exact-timestamp duplicates are therefore collapsed on read.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const auto& a, const auto& b) {
                          return a.time == b.time;
                        }),
            out.end());
  return out;
}

std::optional<core::TimedValue> TierStore::latest(
    core::SeriesId series) const {
  const core::TimeRange all{INT64_MIN + 1, INT64_MAX};
  const TierEntry* best = nullptr;
  std::shared_ptr<const TierFile> keep;
  for (const auto& [file, e] : entries_for(series, all)) {
    if (best == nullptr || e->max_time > best->max_time) {
      best = e;
      keep = file;
    }
  }
  if (best == nullptr) return std::nullopt;
  // The index summary tracks the temporally last raw value — no decode.
  return core::TimedValue{best->max_time, best->summary.last};
}

std::optional<double> TierStore::aggregate(core::SeriesId series,
                                           const core::TimeRange& range,
                                           Agg agg) const {
  ChunkSummary acc;
  std::vector<core::TimedValue> scratch;  // reused batch-decode buffer
  for (const auto& [file, e] : entries_for(series, range)) {
    if (range.begin <= e->min_time && e->max_time < range.end) {
      // Fully covered: the raw-sample summary is EXACT regardless of tier.
      acc.merge(e->summary);
      continue;
    }
    entry_loads_.add();
    auto chunk = file->load_chunk(*e);
    if (!chunk.is_ok()) {
      load_failures_.add();
      continue;
    }
    ChunkSummary part;
    scratch.clear();
    decode_all(chunk.value(), scratch);
    for (const auto& p : scratch) {
      if (p.time >= range.begin && p.time < range.end) part.add(p);
    }
    acc.merge(part);
  }
  return summary_aggregate(acc, agg);
}

std::vector<core::TimedValue> TierStore::downsample(
    core::SeriesId series, const core::TimeRange& range, core::Duration bucket,
    Agg agg) const {
  std::vector<core::TimedValue> out;
  if (bucket <= 0) return out;
  std::map<core::TimePoint, ChunkSummary> buckets;
  std::vector<core::TimedValue> scratch;  // reused batch-decode buffer
  // Buckets sit on the range.begin grid, like TimeSeriesStore::downsample,
  // so a span view's tier and hot halves agree on every bucket start.
  for (const auto& [file, e] : entries_for(series, range)) {
    const auto b0 = downsample_bucket(range.begin, e->min_time, bucket);
    if (range.begin <= e->min_time && e->max_time < range.end &&
        e->max_time < b0 + bucket) {
      // Whole entry inside one bucket: its raw summary is the exact
      // contribution — the "coarsest tier that satisfies the resolution"
      // answer, no decode.
      buckets[b0].merge(e->summary);
      continue;
    }
    entry_loads_.add();
    auto chunk = file->load_chunk(*e);
    if (!chunk.is_ok()) {
      load_failures_.add();
      continue;
    }
    scratch.clear();
    decode_all(chunk.value(), scratch);
    for (const auto& p : scratch) {
      if (p.time >= range.begin && p.time < range.end) {
        buckets[downsample_bucket(range.begin, p.time, bucket)].add(p);
      }
    }
  }
  out.reserve(buckets.size());
  for (const auto& [t, s] : buckets) {
    if (const auto v = summary_aggregate(s, agg)) out.push_back({t, *v});
  }
  return out;
}

std::size_t TierStore::scan(
    core::SeriesId series, const core::TimeRange& range,
    const std::function<bool(const core::TimedValue&)>& visit) const {
  const auto pts = query_range(series, range);
  std::size_t n = 0;
  for (const auto& p : pts) {
    ++n;
    if (!visit(p)) break;
  }
  return n;
}

// ---------------------------------------------------------- introspection

std::vector<std::shared_ptr<const TierFile>> TierStore::files(
    std::uint32_t tier) const {
  std::scoped_lock lock(mu_);
  if (tier >= files_.size()) return {};
  return files_[tier];
}

std::vector<std::shared_ptr<const TierFile>> TierStore::files(
    std::uint32_t tier, std::uint32_t cls) const {
  std::scoped_lock lock(mu_);
  std::vector<std::shared_ptr<const TierFile>> out;
  if (tier >= files_.size()) return out;
  for (const auto& f : files_[tier]) {
    if (f->meta().cls == cls) out.push_back(f);
  }
  return out;
}

std::uint64_t TierStore::disk_bytes() const {
  std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& tier : files_) {
    for (const auto& f : tier) total += f->bytes();
  }
  return total;
}

std::size_t TierStore::file_count() const {
  std::scoped_lock lock(mu_);
  std::size_t n = 0;
  for (const auto& tier : files_) n += tier.size();
  return n;
}

std::size_t TierStore::quarantined_count() const {
  std::scoped_lock lock(mu_);
  return quarantined_;
}

void TierStore::refresh_gauges_locked() {
  std::size_t n = 0;
  std::uint64_t bytes = 0;
  for (const auto& tier : files_) {
    for (const auto& f : tier) {
      ++n;
      bytes += f->bytes();
    }
  }
  files_gauge_.set(static_cast<double>(n));
  bytes_gauge_.set(static_cast<double>(bytes));
}

void TierStore::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"tier.entry_loads", "chunks",
                   "tier-file chunk payloads read (and CRC-checked)"},
                  &entry_loads_);
  registry.attach({"tier.load_failures", "chunks",
                   "tier-file chunk reads that failed integrity checks"},
                  &load_failures_);
  registry.attach({"tier.journal_records", "records",
                   "compaction journal records durably appended"},
                  &journal_records_);
  registry.attach({"tier.quarantined_files", "files",
                   "tier files quarantined (*.corrupt) at recovery"},
                  &quarantined_files_);
  registry.attach({"tier.files", "files", "published tier files",
                   core::Priority::kCritical, obs::GaugeAgg::kSum},
                  &files_gauge_);
  registry.attach({"tier.disk_bytes", "bytes",
                   "bytes held across every retention tier",
                   core::Priority::kCritical, obs::GaugeAgg::kSum},
                  &bytes_gauge_);
}

// -------------------------------------------------------------- TierPolicy

TierPolicy TierPolicy::standard() {
  using core::kDay;
  using core::kHour;
  using core::kMinute;
  using core::kSecond;
  TierPolicy p;
  TierSpec raw;
  raw.resolution = 0;
  raw.agg = Agg::kLast;
  raw.keep = {2 * kDay, 1 * kDay, 6 * kHour};
  TierSpec t10s;
  t10s.resolution = 10 * kSecond;
  t10s.agg = Agg::kMean;
  t10s.keep = {7 * kDay, 3 * kDay, 1 * kDay};
  TierSpec t5m;
  t5m.resolution = 5 * kMinute;
  t5m.agg = Agg::kMean;
  t5m.keep = {90 * kDay, 30 * kDay, 7 * kDay};
  TierSpec t1h;
  t1h.resolution = kHour;
  t1h.agg = Agg::kMean;
  t1h.keep = {400 * kDay, 365 * kDay, 90 * kDay};
  p.tiers = {raw, t10s, t5m, t1h};
  return p;
}

}  // namespace hpcmon::store
