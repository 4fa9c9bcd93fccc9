// Strongly-typed identifiers used throughout hpcmon.
//
// Components follow the Cray XC physical hierarchy the paper's sites monitor
// at: cabinet -> chassis -> blade -> node, plus links, filesystem targets,
// and facility sensors. ComponentId is a dense index assigned by the
// topology builder; SeriesId is a dense index assigned by the MetricRegistry.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace hpcmon::core {

/// Dense id of one timeseries (metric x component) in the MetricRegistry.
enum class SeriesId : std::uint32_t {};
/// Dense id of one physical or logical component in the Topology.
enum class ComponentId : std::uint32_t {};
/// Scheduler-assigned job identifier (monotonically increasing).
enum class JobId : std::uint64_t {};

constexpr std::uint32_t raw(SeriesId id) { return static_cast<std::uint32_t>(id); }
constexpr std::uint32_t raw(ComponentId id) { return static_cast<std::uint32_t>(id); }
constexpr std::uint64_t raw(JobId id) { return static_cast<std::uint64_t>(id); }

/// Exclusive bound on SeriesIds taken from the wire: stores index per-series
/// tables by raw id, so a relayed id past it is refused, not grown to. 2^22
/// series is ~150k nodes at the ~28 series per node hpcmon samples.
constexpr std::uint32_t kWireSeriesIdLimit = 1u << 22;

constexpr ComponentId kNoComponent = ComponentId{0xFFFFFFFFu};
constexpr JobId kNoJob = JobId{0xFFFFFFFFFFFFFFFFull};

/// Kinds of components hpcmon knows how to address.
enum class ComponentKind : std::uint8_t {
  kSystem,    // whole-machine aggregate pseudo-component
  kCabinet,
  kChassis,
  kBlade,
  kNode,
  kGpu,
  kHsnLink,
  kHsnRouter,
  kFsTarget,  // Lustre-like MDS/OST
  kFacility,  // datacenter environment sensor (temp, humidity, corrosion)
  kService,   // daemons, mounts -- things LANL-style health checks probe
};

/// Human label for a component kind ("node", "hsn_link", ...).
std::string_view to_string(ComponentKind kind);

}  // namespace hpcmon::core

template <>
struct std::hash<hpcmon::core::SeriesId> {
  std::size_t operator()(hpcmon::core::SeriesId id) const noexcept {
    return std::hash<std::uint32_t>{}(static_cast<std::uint32_t>(id));
  }
};
template <>
struct std::hash<hpcmon::core::ComponentId> {
  std::size_t operator()(hpcmon::core::ComponentId id) const noexcept {
    return std::hash<std::uint32_t>{}(static_cast<std::uint32_t>(id));
  }
};
template <>
struct std::hash<hpcmon::core::JobId> {
  std::size_t operator()(hpcmon::core::JobId id) const noexcept {
    return std::hash<std::uint64_t>{}(static_cast<std::uint64_t>(id));
  }
};
