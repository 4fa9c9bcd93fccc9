// CollectionService: synchronized periodic sweeps over a set of samplers,
// plus the log collector.
//
// NCSA (Sec. II.2): "collection times are synchronized across the entire
// system" — sweeps are aligned to multiples of the interval on the global
// timeline, so cross-component samples share timestamps and can be
// associated directly (contrast bench/ablation_clockdrift). The paper also
// distinguishes periodic numeric collection from passive log collection of
// "pertinent log messages ... as they asynchronously occur"; LogCollector
// drains the cluster's event stream every tick.
#pragma once

#include <memory>
#include <vector>

#include "collect/sampler.hpp"
#include "obs/stage.hpp"
#include "sim/cluster.hpp"
#include "store/tsdb.hpp"
#include "transport/event_router.hpp"

namespace hpcmon::collect {

class CollectionService {
 public:
  explicit CollectionService(sim::Cluster& cluster) : cluster_(cluster) {}

  /// The event queue has no cancellation, so sweep closures carry a shared
  /// liveness flag: once the service dies (a chaos-harness stack restart
  /// mid-run), already-scheduled sweeps fire as no-ops instead of touching
  /// a destroyed service.
  ~CollectionService() { *alive_ = false; }

  /// Register a sampler to sweep every `interval`, starting at the first
  /// multiple of `interval` >= the cluster's current time. Ownership moves
  /// to the service.
  void add_sampler(std::unique_ptr<Sampler> sampler, core::Duration interval,
                   SampleSink sink);

  /// Drain the cluster's log stream every `interval` into `sink`.
  void add_log_collector(core::Duration interval, LogSink sink);

  std::size_t sweeps_completed() const { return sweeps_; }
  std::size_t samples_collected() const { return samples_; }

  /// Time every sampler's sweep callback into the sampler_sweep stage
  /// histogram; nullptr disables (the default). Takes effect on the next
  /// sweep, including for samplers already registered.
  void set_stage_timer(obs::StageTimer* timer) { stage_timer_ = timer; }

 private:
  sim::Cluster& cluster_;
  obs::StageTimer* stage_timer_ = nullptr;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // Samplers are owned via shared_ptr because the event-queue closures that
  // reference them must remain valid for the simulation's lifetime.
  std::vector<std::shared_ptr<Sampler>> samplers_;
  std::size_t sweeps_ = 0;
  std::size_t samples_ = 0;
};

/// Sink adapters.
SampleSink store_sink(store::TimeSeriesStore& store);
SampleSink router_sample_sink(transport::EventRouter& router);
LogSink router_log_sink(transport::EventRouter& router);

}  // namespace hpcmon::collect
