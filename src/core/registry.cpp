#include "core/registry.hpp"

#include <cassert>
#include <sstream>

namespace hpcmon::core {

namespace {
std::uint64_t series_key(std::uint32_t metric, ComponentId component) {
  return (static_cast<std::uint64_t>(metric) << 32) |
         static_cast<std::uint64_t>(raw(component));
}
}  // namespace

std::uint32_t MetricRegistry::register_metric(const MetricInfo& info) {
  std::scoped_lock lock(mu_);
  if (auto it = metric_by_name_.find(info.name); it != metric_by_name_.end()) {
    return it->second;
  }
  const auto index = static_cast<std::uint32_t>(metrics_.size());
  metrics_.push_back(info);
  metric_by_name_.emplace(info.name, index);
  return index;
}

ComponentId MetricRegistry::register_component(const ComponentInfo& info) {
  std::scoped_lock lock(mu_);
  if (auto it = component_by_name_.find(info.name);
      it != component_by_name_.end()) {
    return it->second;
  }
  const auto id = ComponentId{static_cast<std::uint32_t>(components_.size())};
  components_.push_back(info);
  component_by_name_.emplace(info.name, id);
  return id;
}

SeriesId MetricRegistry::series(std::uint32_t metric_index,
                                ComponentId component) {
  std::scoped_lock lock(mu_);
  assert(metric_index < metrics_.size());
  const auto key = series_key(metric_index, component);
  if (auto it = series_by_key_.find(key); it != series_by_key_.end()) {
    return it->second;
  }
  const auto id = SeriesId{static_cast<std::uint32_t>(series_.size())};
  series_.push_back({metric_index, component});
  series_by_key_.emplace(key, id);
  return id;
}

SeriesId MetricRegistry::series(std::string_view metric_name,
                                ComponentId component) {
  const auto index = register_metric({std::string(metric_name), "", "", false});
  return series(index, component);
}

std::optional<std::uint32_t> MetricRegistry::find_metric(
    std::string_view name) const {
  std::scoped_lock lock(mu_);
  if (auto it = metric_by_name_.find(std::string(name));
      it != metric_by_name_.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::optional<ComponentId> MetricRegistry::find_component(
    std::string_view name) const {
  std::scoped_lock lock(mu_);
  if (auto it = component_by_name_.find(std::string(name));
      it != component_by_name_.end()) {
    return it->second;
  }
  return std::nullopt;
}

const MetricInfo& MetricRegistry::metric(std::uint32_t index) const {
  std::scoped_lock lock(mu_);
  return metrics_.at(index);
}

const ComponentInfo& MetricRegistry::component(ComponentId id) const {
  std::scoped_lock lock(mu_);
  return components_.at(raw(id));
}

Priority MetricRegistry::series_priority(SeriesId id) const {
  std::scoped_lock lock(mu_);
  return metrics_.at(series_.at(raw(id)).metric).priority;
}

std::optional<Priority> MetricRegistry::find_series_priority(
    SeriesId id) const {
  std::scoped_lock lock(mu_);
  if (raw(id) >= series_.size()) return std::nullopt;
  return metrics_[series_[raw(id)].metric].priority;
}

std::uint32_t MetricRegistry::series_metric(SeriesId id) const {
  std::scoped_lock lock(mu_);
  return series_.at(raw(id)).metric;
}

ComponentId MetricRegistry::series_component(SeriesId id) const {
  std::scoped_lock lock(mu_);
  return series_.at(raw(id)).component;
}

std::string MetricRegistry::series_name(SeriesId id) const {
  std::scoped_lock lock(mu_);
  const auto& rec = series_.at(raw(id));
  std::string out = metrics_.at(rec.metric).name;
  out += '@';
  if (rec.component == kNoComponent) {
    out += "<none>";
  } else {
    out += components_.at(raw(rec.component)).name;
  }
  return out;
}

std::size_t MetricRegistry::metric_count() const {
  std::scoped_lock lock(mu_);
  return metrics_.size();
}

std::size_t MetricRegistry::component_count() const {
  std::scoped_lock lock(mu_);
  return components_.size();
}

std::size_t MetricRegistry::series_count() const {
  std::scoped_lock lock(mu_);
  return series_.size();
}

std::vector<ComponentId> MetricRegistry::components_of_kind(
    ComponentKind kind) const {
  std::scoped_lock lock(mu_);
  std::vector<ComponentId> out;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i].kind == kind) {
      out.push_back(ComponentId{static_cast<std::uint32_t>(i)});
    }
  }
  return out;
}

std::vector<ComponentId> MetricRegistry::children_of(ComponentId parent) const {
  std::scoped_lock lock(mu_);
  std::vector<ComponentId> out;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i].parent == parent) {
      out.push_back(ComponentId{static_cast<std::uint32_t>(i)});
    }
  }
  return out;
}

std::string MetricRegistry::describe_all() const {
  std::scoped_lock lock(mu_);
  std::ostringstream os;
  for (const auto& m : metrics_) {
    os << m.name << " [" << (m.units.empty() ? "-" : m.units) << "]"
       << (m.is_counter ? " (counter)" : "");
    if (m.priority != Priority::kStandard) {
      os << " {" << to_string(m.priority) << "}";
    }
    os << ": " << (m.description.empty() ? "(undocumented)" : m.description)
       << "\n";
  }
  return os.str();
}

}  // namespace hpcmon::core
