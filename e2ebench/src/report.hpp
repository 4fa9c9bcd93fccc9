// Measurement helpers of the end-to-end benchmark: percentiles that carry
// their sample count, open-loop due-time accounting, the failed-operation
// ledger, and the one-line JSON result the benchmark prints last.
//
// Header-only and free of hpcmon types so tests/report_test.cpp can check
// them in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// One percentile of a sample: the value, the sample size, and how many
/// samples lie strictly above the chosen rank.
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank q-quantile of `values`, q in (0, 1). Empty when fewer than
/// ten samples lie beyond the rank: such a percentile is one or two outliers,
/// not a measurement.
inline std::optional<Quantile> percentile(std::vector<double> values,
                                          double q) {
  const std::size_t n = values.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  // The epsilon keeps q * n exact-integer cases (0.99 * 1000) from rounding
  // up one rank.
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < 10) return std::nullopt;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return Quantile{values[rank - 1], n, beyond};
}

/// Open-loop release schedule: event k is due at start + k * period whether
/// or not the system kept up. A generator that is ready after an event's due
/// time releases it at once and records the lateness, so one stalled event
/// charges lateness to every event queued behind it, and latencies timed from
/// due() include that wait.
class OpenLoop {
 public:
  OpenLoop(double start_s, double period_s)
      : start_(start_s), period_(period_s) {}

  double due(std::size_t k) const {
    return start_ + period_ * static_cast<double>(k);
  }

  /// The generator is ready to release event k at `ready_s`. Returns the
  /// release time (never before the due time) and records the lateness.
  double release(std::size_t k, double ready_s) {
    const double at = std::max(ready_s, due(k));
    lateness_.push_back(at - due(k));
    return at;
  }

  const std::vector<double>& lateness() const { return lateness_; }

 private:
  double start_;
  double period_;
  std::vector<double> lateness_;
};

/// Operations attempted and failed, by category (queries, subscriber
/// deltas, samples, relay entries). A failed, refused, timed-out, missing or
/// duplicated operation counts once as failed.
class OpsLedger {
 public:
  void attempt(std::string_view category, std::uint64_t n = 1) {
    by_category_[std::string(category)].attempted += n;
  }
  void fail(std::string_view category, std::uint64_t n = 1) {
    by_category_[std::string(category)].failed += n;
  }

  std::uint64_t attempted() const {
    std::uint64_t total = 0;
    for (const auto& [name, c] : by_category_) total += c.attempted;
    return total;
  }
  std::uint64_t failed() const {
    std::uint64_t total = 0;
    for (const auto& [name, c] : by_category_) total += c.failed;
    return total;
  }
  /// Failed over attempted; 0 when nothing was attempted.
  double failed_frac() const {
    const auto a = attempted();
    return a == 0 ? 0.0
                  : static_cast<double>(failed()) / static_cast<double>(a);
  }

  /// One "category attempted=N failed=M" line per category.
  std::string describe() const {
    std::string out;
    for (const auto& [name, c] : by_category_) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-14s attempted=%llu failed=%llu\n",
                    name.c_str(), static_cast<unsigned long long>(c.attempted),
                    static_cast<unsigned long long>(c.failed));
      out += line;
    }
    return out;
  }

 private:
  struct Counts {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, Counts> by_category_;
};

/// A metric name: a letter or digit first, then up to 64 letters, digits,
/// '_', '.', '-'.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto ok = [](char c, bool first) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    return alnum || (!first && (c == '_' || c == '.' || c == '-'));
  };
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!ok(name[i], i == 0)) return false;
  }
  return true;
}

/// A unit: up to 16 letters, digits, '_', '/', '%', '.', '-'.
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (!alnum && c != '_' && c != '/' && c != '%' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

/// The metrics of one run, in insertion order.
class MetricSet {
 public:
  /// False (and nothing added) when the name or unit is malformed, the name
  /// is already present, or the value is not finite; rejected() then counts
  /// it, so a run cannot silently print a result with a metric missing.
  bool add(std::string_view name, double value, std::string_view unit) {
    if (!valid_metric_name(name) || !valid_unit(unit) ||
        !std::isfinite(value) || find(name) != nullptr) {
      ++rejected_;
      return false;
    }
    metrics_.push_back({std::string(name), value, std::string(unit)});
    return true;
  }

  std::size_t rejected() const { return rejected_; }

  const double* find(std::string_view name) const {
    for (const auto& m : metrics_) {
      if (m.name == name) return &m.value;
    }
    return nullptr;
  }

  /// The result line: exactly the keys correct, attempted, failed, metrics;
  /// each metric {"value": v, "unit": u} with v printed to full precision.
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[40];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::size_t rejected_ = 0;
};

}  // namespace e2e
