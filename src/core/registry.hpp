// MetricRegistry: interns (metric name, component) pairs to dense SeriesIds
// and component names to dense ComponentIds.
//
// Table I requires that "the meaning of all raw data should be provided";
// every metric registered here carries units and a free-text description, and
// the registry can dump a data dictionary (see describe_all()).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ids.hpp"
#include "core/priority.hpp"

namespace hpcmon::core {

/// Metadata describing one metric family (e.g. "power_w" exists once per
/// cabinet; each (metric, component) pair is a distinct series).
struct MetricInfo {
  std::string name;         // e.g. "hsn.link.stalls"
  std::string units;        // e.g. "stalls/s"
  std::string description;  // Table I: "the meaning of all raw data"
  bool is_counter = false;  // monotonically increasing raw counter?
  /// Shedding class under storm load (priority.hpp); like the rest of the
  /// metadata, the first registration wins and the class is then immutable.
  Priority priority = Priority::kStandard;
};

/// Metadata describing one component instance.
struct ComponentInfo {
  std::string name;  // e.g. "c0-0c1s3n2" (Cray cname style) or "ost.12"
  ComponentKind kind = ComponentKind::kNode;
  ComponentId parent = kNoComponent;  // physical containment
};

/// Thread-safe interning registry. Ids are dense and stable for the lifetime
/// of the registry, so stores can use them as vector indices.
class MetricRegistry {
 public:
  /// Register (or look up) a metric family. Re-registering the same name
  /// returns the original index; metadata from the first call wins.
  std::uint32_t register_metric(const MetricInfo& info);

  /// Register (or look up) a component. Name must be unique system-wide.
  ComponentId register_component(const ComponentInfo& info);

  /// Intern the series for (metric, component), creating it on first use.
  SeriesId series(std::uint32_t metric_index, ComponentId component);

  /// Convenience: register metric by name with empty metadata + get series.
  SeriesId series(std::string_view metric_name, ComponentId component);

  std::optional<std::uint32_t> find_metric(std::string_view name) const;
  std::optional<ComponentId> find_component(std::string_view name) const;

  const MetricInfo& metric(std::uint32_t index) const;
  const ComponentInfo& component(ComponentId id) const;
  /// Metric/component of an interned series.
  std::uint32_t series_metric(SeriesId id) const;
  ComponentId series_component(SeriesId id) const;
  /// Shedding class of an interned series (its metric family's priority).
  Priority series_priority(SeriesId id) const;
  /// series_priority() for an id that may never have been interned (a
  /// relayed node-local id, a hostile frame): nullopt instead of throwing.
  std::optional<Priority> find_series_priority(SeriesId id) const;
  /// "metric@component" label for reports.
  std::string series_name(SeriesId id) const;

  std::size_t metric_count() const;
  std::size_t component_count() const;
  std::size_t series_count() const;

  /// All components of a given kind (e.g. every cabinet for Fig 3 panels).
  std::vector<ComponentId> components_of_kind(ComponentKind kind) const;
  /// Direct children of a component in the containment tree.
  std::vector<ComponentId> children_of(ComponentId parent) const;

  /// Render the full data dictionary (one line per metric family).
  std::string describe_all() const;

 private:
  struct SeriesRec {
    std::uint32_t metric = 0;
    ComponentId component = kNoComponent;
  };

  mutable std::mutex mu_;
  std::vector<MetricInfo> metrics_;
  std::unordered_map<std::string, std::uint32_t> metric_by_name_;
  std::vector<ComponentInfo> components_;
  std::unordered_map<std::string, ComponentId> component_by_name_;
  std::vector<SeriesRec> series_;
  std::unordered_map<std::uint64_t, SeriesId> series_by_key_;
};

}  // namespace hpcmon::core
