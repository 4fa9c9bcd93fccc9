#include "collect/collection.hpp"

#include "transport/codec.hpp"

namespace hpcmon::collect {

using core::Duration;
using core::TimePoint;

namespace {
/// First multiple of `interval` at or after `t` (synchronized sweep grid).
TimePoint align_up(TimePoint t, Duration interval) {
  return (t + interval - 1) / interval * interval;
}
}  // namespace

void CollectionService::add_sampler(std::unique_ptr<Sampler> sampler,
                                    Duration interval, SampleSink sink) {
  std::shared_ptr<Sampler> shared(std::move(sampler));
  samplers_.push_back(shared);
  const TimePoint first = align_up(cluster_.now() + 1, interval);
  cluster_.events().schedule_every(
      first, interval,
      [this, alive = alive_, shared, sink = std::move(sink)](TimePoint now) {
        if (!*alive) return;
        core::SampleBatch batch;
        batch.sweep_time = now;
        {
          obs::StageTimer::Scoped span(stage_timer_,
                                       obs::Stage::kSamplerSweep);
          shared->sample(now, batch);
        }
        ++sweeps_;
        samples_ += batch.size();
        sink(std::move(batch));
      });
}

void CollectionService::add_log_collector(Duration interval, LogSink sink) {
  const TimePoint first = align_up(cluster_.now() + 1, interval);
  cluster_.events().schedule_every(
      first, interval,
      [this, alive = alive_, sink = std::move(sink)](TimePoint) {
        if (!*alive) return;
        auto events = cluster_.drain_logs();
        if (!events.empty()) sink(std::move(events));
      });
}

SampleSink store_sink(store::TimeSeriesStore& store) {
  return [&store](core::SampleBatch&& batch) {
    store.append_batch(batch.samples);
  };
}

SampleSink router_sample_sink(transport::EventRouter& router) {
  return [&router](core::SampleBatch&& batch) {
    router.publish(transport::encode_samples(batch));
  };
}

LogSink router_log_sink(transport::EventRouter& router) {
  return [&router](std::vector<core::LogEvent>&& events) {
    router.publish(transport::encode_logs(events));
  };
}

}  // namespace hpcmon::collect
