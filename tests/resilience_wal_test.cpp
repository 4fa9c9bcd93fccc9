// WriteAheadLog: append/replay round-trip, rotation, truncation, torn tails,
// CRC-skipped corruption, and injected file-layer faults.
#include "resilience/wal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "resilience/fault.hpp"
#include "transport/codec.hpp"

namespace hpcmon::resilience {
namespace {

namespace fs = std::filesystem;
using core::SampleBatch;

std::string fresh_dir(const std::string& name) {
  const std::string dir = "/tmp/hpcmon_wal_test_" + name;
  fs::remove_all(dir);
  return dir;
}

SampleBatch make_batch(core::TimePoint sweep, int n = 8) {
  SampleBatch b;
  b.sweep_time = sweep;
  b.origin = core::ComponentId{7};
  for (int i = 0; i < n; ++i) {
    b.samples.push_back({core::SeriesId{static_cast<std::uint32_t>(i)},
                         sweep + i, sweep * 0.25 + i});
  }
  return b;
}

transport::Frame make_frame(core::TimePoint sweep, int n = 8) {
  return transport::encode_samples(make_batch(sweep, n));
}

std::vector<SampleBatch> replay_all(const std::string& dir,
                                    ReplayStats* stats = nullptr) {
  std::vector<SampleBatch> out;
  const auto s = WriteAheadLog::replay(
      dir, [&](SampleBatch&& b) { out.push_back(std::move(b)); });
  if (stats != nullptr) *stats = s;
  return out;
}

TEST(WalTest, AppendReplayRoundTrip) {
  const auto dir = fresh_dir("roundtrip");
  {
    WriteAheadLog wal({.dir = dir});
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal.append(make_frame((i + 1) * core::kMinute)).is_ok());
    }
    EXPECT_EQ(wal.stats().appended_records, 3u);
    EXPECT_EQ(wal.stats().appended_samples, 24u);
    EXPECT_GT(wal.stats().appended_bytes, 0u);
  }
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.samples, 24u);
  EXPECT_EQ(stats.corrupt_skipped, 0u);
  EXPECT_EQ(stats.torn_tails, 0u);
  ASSERT_EQ(batches.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto want = make_batch((i + 1) * core::kMinute);
    EXPECT_EQ(batches[i].sweep_time, want.sweep_time);
    EXPECT_EQ(batches[i].origin, want.origin);
    EXPECT_EQ(batches[i].samples, want.samples);
  }
  fs::remove_all(dir);
}

TEST(WalTest, EmptyBatchIsNoOp) {
  const auto dir = fresh_dir("empty");
  WriteAheadLog wal({.dir = dir});
  EXPECT_TRUE(wal.append(transport::encode_samples(SampleBatch{})).is_ok());
  EXPECT_EQ(wal.stats().appended_records, 0u);
  fs::remove_all(dir);
}

TEST(WalTest, MalformedFrameIsRefusedWithATypedError) {
  const auto dir = fresh_dir("malformed");
  WriteAheadLog wal({.dir = dir});
  auto wrong_type = make_frame(core::kMinute);
  wrong_type.type = transport::FrameType::kLogs;
  auto short_header = make_frame(core::kMinute);
  short_header.payload.resize(15);  // the header is 16 bytes
  auto short_body = make_frame(core::kMinute);
  short_body.payload.pop_back();
  auto long_body = make_frame(core::kMinute);
  long_body.payload.push_back(0);
  for (const auto* f : {&wrong_type, &short_header, &short_body, &long_body}) {
    const auto st = wal.append(*f);
    EXPECT_FALSE(st.is_ok());
    EXPECT_EQ(st.code(), core::StatusCode::kCorruption) << st.message();
  }
  // Nothing was written, and the log is not poisoned by a caller's bad frame.
  EXPECT_EQ(wal.stats().appended_records, 0u);
  EXPECT_EQ(wal.stats().append_failures, 0u);
  EXPECT_FALSE(wal.poisoned());
  const auto good = make_frame(2 * core::kMinute);
  ASSERT_TRUE(wal.append(good).is_ok());
  // The record is the frame's payload unchanged behind its 8-byte header.
  EXPECT_EQ(wal.stats().appended_bytes, 8 + good.payload.size());
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].samples, make_batch(2 * core::kMinute).samples);
  fs::remove_all(dir);
}

TEST(WalTest, RotationSealsSegments) {
  const auto dir = fresh_dir("rotate");
  {
    // Tiny segments: every append exceeds the threshold and seals.
    WriteAheadLog wal({.dir = dir, .segment_bytes = 64});
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal.append(make_frame((i + 1) * core::kMinute)).is_ok());
    }
    EXPECT_EQ(wal.sealed_segments(), 5u);
    EXPECT_EQ(wal.stats().segments_created, 6u);  // 5 sealed + active
  }
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.segments, 6u);
  EXPECT_EQ(stats.records, 5u);
  ASSERT_EQ(batches.size(), 5u);
  EXPECT_EQ(batches.front().sweep_time, core::kMinute);
  EXPECT_EQ(batches.back().sweep_time, 5 * core::kMinute);
  fs::remove_all(dir);
}

TEST(WalTest, TruncateBeforeDropsOnlySealedOldSegments) {
  const auto dir = fresh_dir("truncate");
  WriteAheadLog wal({.dir = dir, .segment_bytes = 64});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal.append(make_frame((i + 1) * core::kMinute)).is_ok());
  }
  ASSERT_EQ(wal.sealed_segments(), 4u);
  // Newest sample in segment i is (i+1)min + 7us; cutoff past segment 2.
  const auto removed = wal.truncate_before(2 * core::kMinute + core::kSecond);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(wal.sealed_segments(), 2u);
  EXPECT_EQ(wal.stats().segments_truncated, 2u);
  // The surviving records are exactly the newer two.
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].sweep_time, 3 * core::kMinute);
  EXPECT_EQ(batches[1].sweep_time, 4 * core::kMinute);
  // Cutoff beyond everything: sealed segments go, the active one stays.
  wal.truncate_before(core::kHour);
  EXPECT_EQ(wal.sealed_segments(), 0u);
  ASSERT_TRUE(wal.append(make_frame(core::kHour)).is_ok());
  fs::remove_all(dir);
}

TEST(WalTest, TornTailToleratedOnReplay) {
  const auto dir = fresh_dir("torn");
  {
    WriteAheadLog wal({.dir = dir});
    ASSERT_TRUE(wal.append(make_frame(core::kMinute)).is_ok());
    ASSERT_TRUE(wal.append(make_frame(2 * core::kMinute)).is_ok());
    wal.simulate_torn_tail();
    EXPECT_TRUE(wal.poisoned());
    // The poisoned log refuses further appends (damage bounded to the tear).
    EXPECT_FALSE(wal.append(make_frame(3 * core::kMinute)).is_ok());
    EXPECT_EQ(wal.stats().append_failures, 2u);
  }
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.torn_tails, 1u);
  EXPECT_EQ(stats.corrupt_skipped, 0u);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[1].sweep_time, 2 * core::kMinute);
  fs::remove_all(dir);
}

TEST(WalTest, CorruptRecordSkippedScanContinues) {
  const auto dir = fresh_dir("corrupt");
  std::string segment;
  {
    WriteAheadLog wal({.dir = dir});
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal.append(make_frame((i + 1) * core::kMinute)).is_ok());
    }
    segment = dir + "/wal-00000001.seg";
  }
  // Flip one byte inside the second record's payload: CRC must catch it,
  // replay must skip that record and still deliver the third.
  std::FILE* f = std::fopen(segment.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::uint32_t len1 = 0;
  ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);  // past segment header
  ASSERT_EQ(std::fread(&len1, 4, 1, f), 1u);
  const long second_payload = 8 + 8 + static_cast<long>(len1) + 8;
  ASSERT_EQ(std::fseek(f, second_payload + 3, SEEK_SET), 0);
  unsigned char byte = 0;
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= 0xFF;
  ASSERT_EQ(std::fseek(f, second_payload + 3, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);

  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.corrupt_skipped, 1u);
  EXPECT_EQ(stats.torn_tails, 0u);
  EXPECT_EQ(stats.records, 2u);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].sweep_time, core::kMinute);
  EXPECT_EQ(batches[1].sweep_time, 3 * core::kMinute);
  fs::remove_all(dir);
}

TEST(WalTest, BadSegmentHeaderSkipsSegment) {
  const auto dir = fresh_dir("badheader");
  fs::create_directories(dir);
  std::FILE* f = std::fopen((dir + "/wal-00000001.seg").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a wal segment", f);
  std::fclose(f);
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.bad_segments, 1u);
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_TRUE(batches.empty());
  fs::remove_all(dir);
}

TEST(WalTest, MissingDirectoryReplaysEmpty) {
  ReplayStats stats;
  const auto batches = replay_all("/tmp/hpcmon_wal_never_created", &stats);
  EXPECT_TRUE(batches.empty());
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_EQ(stats.bad_segments, 0u);
}

TEST(WalTest, ReopenSealsPriorIncarnationsSegments) {
  const auto dir = fresh_dir("reopen");
  {
    WriteAheadLog wal({.dir = dir});
    ASSERT_TRUE(wal.append(make_frame(core::kMinute)).is_ok());
    EXPECT_EQ(wal.active_segment_index(), 1u);
  }
  {
    WriteAheadLog wal({.dir = dir});
    EXPECT_EQ(wal.sealed_segments(), 1u);
    EXPECT_EQ(wal.active_segment_index(), 2u);
    ASSERT_TRUE(wal.append(make_frame(2 * core::kMinute)).is_ok());
  }
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].sweep_time, core::kMinute);
  EXPECT_EQ(batches[1].sweep_time, 2 * core::kMinute);
  fs::remove_all(dir);
}

// The WAL consults the generic filesystem fault points (one kWrite op per
// logical append), so these tests script faults by fs-op index.
TEST(WalTest, InjectedErrorFailsOneAppend) {
  const auto dir = fresh_dir("inject_error");
  FaultSpec spec;
  spec.fs_error_at = 2;
  FaultPlan plan(1234, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    EXPECT_TRUE(wal.append(make_frame(core::kMinute)).is_ok());
    EXPECT_FALSE(wal.append(make_frame(2 * core::kMinute)).is_ok());
    EXPECT_FALSE(wal.poisoned());  // plain error, not a torn write
    EXPECT_TRUE(wal.append(make_frame(3 * core::kMinute)).is_ok());
    EXPECT_EQ(wal.stats().append_failures, 1u);
    EXPECT_EQ(wal.stats().appended_records, 2u);
  }
  EXPECT_EQ(plan.injected().fs_errors, 1u);
  EXPECT_EQ(plan.fs_ops(), 3u);
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[1].sweep_time, 3 * core::kMinute);
  fs::remove_all(dir);
}

TEST(WalTest, InjectedEnospcFailsAppendWithoutPoisoning) {
  const auto dir = fresh_dir("inject_enospc");
  FaultSpec spec;
  spec.fs_enospc_at = 2;
  FaultPlan plan(1234, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    EXPECT_TRUE(wal.append(make_frame(core::kMinute)).is_ok());
    EXPECT_FALSE(wal.append(make_frame(2 * core::kMinute)).is_ok());
    // A full disk rejects the record cleanly; nothing was half-written, so
    // the log is not poisoned and recovers as soon as space returns.
    EXPECT_FALSE(wal.poisoned());
    EXPECT_TRUE(wal.append(make_frame(3 * core::kMinute)).is_ok());
  }
  EXPECT_EQ(plan.injected().fs_enospc, 1u);
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 2u);
  fs::remove_all(dir);
}

TEST(WalTest, InjectedShortWriteTearsAndPoisons) {
  const auto dir = fresh_dir("inject_short");
  FaultSpec spec;
  spec.fs_short_write_at = 3;
  FaultPlan plan(1234, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    EXPECT_TRUE(wal.append(make_frame(core::kMinute)).is_ok());
    EXPECT_TRUE(wal.append(make_frame(2 * core::kMinute)).is_ok());
    EXPECT_FALSE(wal.append(make_frame(3 * core::kMinute)).is_ok());
    EXPECT_TRUE(wal.poisoned());
  }
  EXPECT_EQ(plan.injected().fs_short_writes, 1u);
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.torn_tails, 1u);
  ASSERT_EQ(batches.size(), 2u);
  fs::remove_all(dir);
}

TEST(WalTest, InjectedCrashLooksLikeATornTail) {
  const auto dir = fresh_dir("inject_crash");
  FaultSpec spec;
  spec.fs_crash_at = 2;
  FaultPlan plan(1234, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    EXPECT_TRUE(wal.append(make_frame(core::kMinute)).is_ok());
    EXPECT_FALSE(wal.append(make_frame(2 * core::kMinute)).is_ok());
    EXPECT_TRUE(wal.poisoned());
  }
  EXPECT_EQ(plan.injected().fs_crashes, 1u);
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.torn_tails, 1u);
  ASSERT_EQ(batches.size(), 1u);  // only the pre-crash record survives
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hpcmon::resilience
