#include "ingest/pipeline.hpp"

#include <chrono>

#include "ingest/arena.hpp"

namespace hpcmon::ingest {

namespace {
using std::chrono::steady_clock;

std::uint64_t elapsed_us(steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          steady_clock::now() - since)
          .count());
}
}  // namespace

std::string_view to_string(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kDropOldest: return "drop_oldest";
    case OverloadPolicy::kReject: return "reject";
  }
  return "?";
}

OverloadPolicy policy_from_string(std::string_view name, OverloadPolicy dflt) {
  if (name == "block") return OverloadPolicy::kBlock;
  if (name == "drop_oldest") return OverloadPolicy::kDropOldest;
  if (name == "reject") return OverloadPolicy::kReject;
  return dflt;
}

IngestPipeline::IngestPipeline(ShardedTimeSeriesStore& store,
                               IngestConfig config)
    : store_(store), config_(config), metrics_(store.shard_count()) {
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.max_coalesce_batches == 0) config_.max_coalesce_batches = 1;
  if (config_.standard_stride == 0) config_.standard_stride = 1;
  obs_ = config_.obs != nullptr ? config_.obs : &own_obs_;
  metrics_.attach_to(*obs_);
  channels_.reserve(store_.shard_count());
  for (std::size_t i = 0; i < store_.shard_count(); ++i) {
    channels_.push_back(std::make_unique<transport::Channel<PrioritizedBatch>>(
        config_.queue_capacity));
  }
}

std::optional<core::Priority> IngestPipeline::priority_of(
    core::SeriesId series) {
  if (!config_.priority_of) return core::Priority::kStandard;
  const auto idx = static_cast<std::size_t>(core::raw(series));
  {
    std::shared_lock lock(pri_mu_);
    if (idx < pri_cache_.size() && pri_cache_[idx] != 255) {
      return static_cast<core::Priority>(pri_cache_[idx]);
    }
  }
  const auto pri = config_.priority_of(series);
  if (!pri) return std::nullopt;
  std::unique_lock lock(pri_mu_);
  if (idx >= pri_cache_.size()) pri_cache_.resize(idx + 1, 255);
  pri_cache_[idx] = static_cast<std::uint8_t>(*pri);
  return pri;
}

bool IngestPipeline::admit_standard(core::SeriesId series) {
  const auto idx = static_cast<std::size_t>(core::raw(series));
  std::scoped_lock lock(stride_mu_);
  if (idx >= stride_counts_.size()) stride_counts_.resize(idx + 1, 0);
  return (stride_counts_[idx]++ % config_.standard_stride) == 0;
}

IngestPipeline::~IngestPipeline() { stop(); }

void IngestPipeline::start() {
  if (started_ || stopped_) return;
  started_ = true;
  workers_.reserve(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    workers_.emplace_back([this, i] { worker(i); });
  }
}

std::size_t IngestPipeline::submit(const core::SampleBatch& batch) {
  metrics_.record_submit(batch.size());
  const auto mode = this->mode();
  // Partition by owning shard AND priority class, applying the degradation
  // mode's door policy per sample; each queued item then has one uniform
  // class, which keeps per-series ordering (a series has exactly one class)
  // and lets eviction treat items wholesale.
  constexpr std::size_t kClasses = core::kPriorityClasses;
  std::vector<std::array<core::SampleBatch, kClasses>> parts(channels_.size());
  std::array<std::size_t, kClasses> offered{};
  std::array<std::size_t, kClasses> shed{};
  for (const auto& s : batch.samples) {
    const auto known = priority_of(s.series);
    const auto pri = known.value_or(core::Priority::kStandard);
    const auto cls = static_cast<std::size_t>(pri);
    ++offered[cls];
    if (pri == core::Priority::kBulk &&
        mode >= core::DegradationMode::kShedBulk) {
      ++shed[cls];
      continue;
    }
    // An unknown id has no per-series counter to thin by, so SUMMARIZE
    // sheds it outright.
    if (pri == core::Priority::kStandard) {
      if (mode == core::DegradationMode::kQuarantine ||
          (mode == core::DegradationMode::kSummarize &&
           (!known || !admit_standard(s.series)))) {
        ++shed[cls];
        continue;
      }
    }
    parts[store_.shard_of(s.series)][cls].samples.push_back(s);
  }
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto pri = static_cast<core::Priority>(c);
    if (offered[c] > 0) metrics_.record_submit_class(pri, offered[c]);
    if (shed[c] > 0) metrics_.record_shed(pri, shed[c]);
  }

  std::size_t enqueued = 0;
  for (std::size_t shard = 0; shard < parts.size(); ++shard) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      auto& samples = parts[shard][c].samples;
      if (samples.empty()) continue;
      const auto pri = static_cast<core::Priority>(c);
      PrioritizedBatch part;
      part.priority = pri;
      part.batch.samples = std::move(samples);
      part.batch.sweep_time = batch.sweep_time;
      part.batch.origin = batch.origin;
      if (config_.stages != nullptr) part.enqueue_time = steady_clock::now();
      const std::size_t n = part.batch.samples.size();
      auto& ch = *channels_[shard];
      const bool critical = pri == core::Priority::kCritical;

      // Fast path: space available (push_for with zero wait does not consume
      // `part` on failure, so the policy below still owns the same item).
      bool pushed = ch.push_for(part, std::chrono::seconds(0));
      if (!pushed) {
        // Critical sub-batches bypass the lossy policies: make room by
        // evicting lower-priority queued work, then fall back to bounded
        // blocking backpressure. The only way a critical batch is refused is
        // a closed (stopping) pipeline.
        const auto policy = critical && config_.policy != OverloadPolicy::kBlock
                                ? OverloadPolicy::kDropOldest
                                : config_.policy;
        switch (policy) {
          case OverloadPolicy::kBlock: {
            if (ch.closed()) break;  // reject, not a backpressure stall
            metrics_.record_block_entered();
            const auto t0 = steady_clock::now();
            // Bounded waits so a closed pipeline cannot wedge a producer.
            while (!ch.closed() && !(pushed = ch.push_for(
                                         part, std::chrono::milliseconds(50)))) {
            }
            metrics_.record_block_wait(elapsed_us(t0));
            break;
          }
          case OverloadPolicy::kDropOldest: {
            bool block_entered = false;
            auto t0 = steady_clock::now();
            while (!ch.closed() &&
                   !(pushed = ch.push_for(part, std::chrono::seconds(0)))) {
              // Evict the oldest item of the worst class present, down to the
              // incoming batch's own class (classic drop-oldest within a
              // class) — bulk before standard, critical never.
              const std::size_t floor = c < 1 ? 1 : c;
              std::optional<PrioritizedBatch> evicted;
              for (std::size_t victim = kClasses - 1; victim >= floor;
                   --victim) {
                evicted = ch.evict_first_if([victim](const PrioritizedBatch& q) {
                  return static_cast<std::size_t>(q.priority) == victim;
                });
                if (evicted) break;
              }
              if (evicted) {
                metrics_.record_dropped(evicted->batch.samples.size(),
                                        evicted->priority);
                in_flight_.fetch_add(-1, std::memory_order_acq_rel);
                continue;
              }
              if (critical) {
                // Nothing outranked below us (queue is all-critical):
                // backpressure rather than lose critical data.
                if (!block_entered) {
                  block_entered = true;
                  metrics_.record_block_entered();
                  t0 = steady_clock::now();
                }
                pushed = ch.push_for(part, std::chrono::milliseconds(50));
                continue;
              }
              // Incoming batch ranks no higher than anything queued: the
              // incoming work IS the oldest-to-shed equivalent. Drop it.
              break;
            }
            if (block_entered) metrics_.record_block_wait(elapsed_us(t0));
            if (!pushed && !ch.closed()) {
              metrics_.record_dropped(n, pri);
              continue;  // counted as dropped, not rejected
            }
            break;
          }
          case OverloadPolicy::kReject:
            break;
        }
      }
      if (pushed) {
        in_flight_.fetch_add(1, std::memory_order_acq_rel);
        metrics_.record_enqueue(shard, ch.size());
        enqueued += n;
      } else {
        metrics_.record_rejected(n, pri);
      }
    }
  }
  return enqueued;
}

void IngestPipeline::drain() {
  if (!started_ || stopped_) return;
  while (in_flight_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool IngestPipeline::drain_for(std::chrono::milliseconds deadline) {
  if (!started_ || stopped_) {
    return in_flight_.load(std::memory_order_acquire) <= 0;
  }
  const auto until = steady_clock::now() + deadline;
  while (in_flight_.load(std::memory_order_acquire) > 0) {
    if (steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void IngestPipeline::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& ch : channels_) ch->close();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void IngestPipeline::worker(std::size_t shard) {
  auto& ch = *channels_[shard];
  const auto idle = std::chrono::milliseconds(config_.idle_poll_ms);
  // Per-worker merge arena: reset on every drain, so the coalesce+append
  // hot loop reuses one warmed-up allocation instead of growing and freeing
  // a vector per iteration.
  SampleArena arena;
  for (;;) {
    auto first = ch.pop_for(idle);
    if (!first) {
      // Timeout or closed-and-drained; this worker is the only consumer, so
      // the emptiness check cannot race another pop.
      if (ch.closed() && ch.size() == 0) return;
      continue;
    }
    const auto work_t0 = steady_clock::now();
    // Each sub-batch's wait ends at its own pop: a batch coalesced below may
    // have been enqueued after work_t0, and measuring it against work_t0
    // would go negative.
    const auto queue_wait = [&](const PrioritizedBatch& item) {
      if (config_.stages == nullptr) return;
      config_.stages->record(obs::Stage::kQueueWait,
                             elapsed_us(item.enqueue_time));
    };
    queue_wait(*first);
    // Coalesce whatever else is already queued (bounded) into one append:
    // fewer lock acquisitions per sample, and the batch-size histogram shows
    // how bursty the offered load was. Classes may mix in the merged append;
    // the store does not care, and each sub-batch already survived the
    // priority-aware admission above.
    arena.reset();
    arena.append(first->batch.samples);
    std::size_t sub_batches = 1;
    while (sub_batches < config_.max_coalesce_batches) {
      auto more = ch.try_pop();
      if (!more) break;
      queue_wait(*more);
      arena.append(more->batch.samples);
      ++sub_batches;
    }
    const auto t0 = steady_clock::now();
    const std::size_t accepted =
        store_.append_batch_on_shard(shard, arena.run());
    const auto append_us = elapsed_us(t0);
    metrics_.record_append(sub_batches, accepted, arena.size() - accepted,
                           append_us);
    metrics_.record_arena(shard, arena.capacity_bytes());
    if (config_.stages != nullptr) {
      config_.stages->record(obs::Stage::kStoreAppend, append_us);
      config_.stages->record(obs::Stage::kShardWorker, elapsed_us(work_t0));
    }
    in_flight_.fetch_add(-static_cast<std::int64_t>(sub_batches),
                         std::memory_order_acq_rel);
  }
}

}  // namespace hpcmon::ingest
