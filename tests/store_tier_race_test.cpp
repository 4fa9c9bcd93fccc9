// Concurrent reads across a moving seam: reader threads run query_range and
// aggregate on a TierSpanView while the owning thread runs Compactor passes
// that commit sealed hot chunks into tier 0 and evict them from the hot
// store. Every read must equal the raw reference: no point missed while a
// chunk moves from hot to tier, none counted twice while it briefly sits on
// both sides. Runs under ThreadSanitizer via the `threaded` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "store/compactor.hpp"
#include "store/tier.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::store {
namespace {

using core::kDay;
using core::kSecond;
using core::SeriesId;
using core::TimedValue;
using core::TimeRange;

constexpr int kSeries = 4;
constexpr int kPoints = 640;         // per series
constexpr std::size_t kChunk = 8;    // points per sealed chunk
constexpr auto kStep = 10 * kSecond;  // sample spacing

/// Raw-only ladder that keeps everything: the tier side of the span never
/// changes resolution, so every read has one exact answer.
TierPolicy raw_only() {
  TierSpec raw;
  raw.resolution = 0;
  raw.agg = Agg::kLast;
  raw.keep = {kDay, kDay, kDay};
  TierPolicy p;
  p.tiers = {raw};
  return p;
}

/// The hot store as the span view sees it, with a short pause before every
/// read. The pause stretches the gap between the view's tier read and its
/// hot read, so a compaction pass lands inside it often enough to expose an
/// unsafe read order on an idle machine, not only on a loaded one.
struct PausedHot {
  const TimeSeriesStore* store;

  static void pause() {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<TimedValue> query_range(SeriesId id, const TimeRange& r) const {
    pause();
    return store->query_range(id, r);
  }
  std::optional<double> aggregate(SeriesId id, const TimeRange& r,
                                  Agg agg) const {
    pause();
    return store->aggregate(id, r, agg);
  }
  std::size_t scan(SeriesId id, const TimeRange& r,
                   const std::function<bool(const TimedValue&)>& visit) const {
    pause();
    return store->scan(id, r, visit);
  }
};

/// Integer-valued points, so sums are exact in any order.
double value_at(int s, int i) { return s * 100000.0 + (i * 37) % 1000; }

std::optional<double> reference_agg(const std::vector<TimedValue>& pts,
                                    Agg agg) {
  if (pts.empty()) return std::nullopt;
  double sum = 0.0;
  double lo = pts.front().value;
  double hi = lo;
  for (const auto& p : pts) {
    sum += p.value;
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  switch (agg) {
    case Agg::kCount: return static_cast<double>(pts.size());
    case Agg::kSum: return sum;
    case Agg::kMin: return lo;
    case Agg::kMax: return hi;
    default: return std::nullopt;
  }
}

TEST(TierRaceTest, SpanReadsStayExactWhileCompactionMovesTheSeam) {
  const std::string dir = "/tmp/hpcmon_tier_race";
  std::filesystem::remove_all(dir);

  TimeSeriesStore hot(kChunk);
  std::vector<std::vector<TimedValue>> raw(kSeries);
  for (int i = 0; i < kPoints; ++i) {
    for (int s = 0; s < kSeries; ++s) {
      const TimedValue p{i * kStep, value_at(s, i)};
      ASSERT_TRUE(hot.append(SeriesId{static_cast<std::uint32_t>(s)}, p.time,
                             p.value));
      raw[s].push_back(p);
    }
  }

  TierStore::Options o;
  o.dir = dir;
  o.policy = raw_only();
  TierStore tiers(std::move(o));
  ASSERT_TRUE(tiers.open().is_ok());
  CompactorOptions co;
  co.hot_window = 0;
  Compactor compactor({&hot}, &tiers, std::move(co));
  const PausedHot paused{&hot};
  const TierSpanView<PausedHot> span(&tiers, &paused);

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<long> reads{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint32_t x = 0x9E3779B9u * static_cast<std::uint32_t>(r + 1);
      const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        return x;
      };
      // At least one sweep after the compactor finishes, so the last reads
      // see the final all-in-tier state.
      for (bool last = false; !last;) {
        last = done.load(std::memory_order_acquire);
        const int s = static_cast<int>(next() % kSeries);
        const int a = static_cast<int>(next() % kPoints);
        const int b = a + 1 + static_cast<int>(next() % (kPoints - a));
        const TimeRange range{a * kStep, b * kStep};
        const std::vector<TimedValue> want(raw[s].begin() + a,
                                           raw[s].begin() + b);
        const SeriesId id{static_cast<std::uint32_t>(s)};
        if (span.query_range(id, range) != want) ++mismatches;
        for (const Agg agg : {Agg::kCount, Agg::kSum, Agg::kMin, Agg::kMax}) {
          if (span.aggregate(id, range, agg) != reference_agg(want, agg)) {
            ++mismatches;
          }
        }
        ++reads;
      }
    });
  }

  // One pass per chunk width: each pass moves the next sealed chunk of
  // every series across the seam. Between passes, wait for a few more reads
  // so the readers keep overlapping the passes however they are scheduled.
  int passes = 0;
  for (int i = 0; i <= kPoints; i += static_cast<int>(kChunk)) {
    EXPECT_TRUE(compactor.run_pass(i * kStep + 1).is_ok());
    ++passes;
    for (const long seen = reads.load(); reads.load() < seen + kReaders;) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(reads.load(), passes);
  // Every sealed chunk crossed the seam; only the open heads stay hot.
  EXPECT_GT(tiers.file_count(), 0u);
  EXPECT_EQ(hot.stats().sealed_chunks, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hpcmon::store
