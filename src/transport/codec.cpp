#include "transport/codec.hpp"

#include <cstdio>
#include <cstring>

#include "core/strings.hpp"

namespace hpcmon::transport {

using core::LogEvent;
using core::Result;
using core::Sample;
using core::SampleBatch;

Frame encode_samples(const SampleBatch& batch) {
  Frame f;
  f.type = FrameType::kSamples;
  ByteWriter w(f.payload);
  w.i64(batch.sweep_time);
  w.u32(core::raw(batch.origin));
  w.u32(static_cast<std::uint32_t>(batch.samples.size()));
  for (const auto& s : batch.samples) {
    w.u32(core::raw(s.series));
    w.i64(s.time);
    w.f64(s.value);
  }
  return f;
}

Result<SampleBatch> decode_samples(const Frame& frame) {
  if (frame.type != FrameType::kSamples) {
    return Result<SampleBatch>::error("frame is not a sample batch");
  }
  ByteReader r(frame.payload);
  SampleBatch batch;
  std::uint32_t origin = 0;
  std::uint32_t count = 0;
  if (!r.i64(batch.sweep_time) || !r.u32(origin) || !r.u32(count)) {
    return Result<SampleBatch>::error("truncated sample frame header");
  }
  batch.origin = core::ComponentId{origin};
  batch.samples.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Sample s;
    std::uint32_t series = 0;
    if (!r.u32(series) || !r.i64(s.time) || !r.f64(s.value)) {
      return Result<SampleBatch>::error("truncated sample frame body");
    }
    s.series = core::SeriesId{series};
    batch.samples.push_back(s);
  }
  return batch;
}

Result<SampleFrameInfo> inspect_samples(const Frame& frame) {
  if (frame.type != FrameType::kSamples) {
    return Result<SampleFrameInfo>::error("frame is not a sample batch");
  }
  ByteReader r(frame.payload);
  SampleFrameInfo info;
  std::uint32_t origin = 0;
  if (!r.i64(info.max_time) || !r.u32(origin) || !r.u32(info.count)) {
    return Result<SampleFrameInfo>::error("truncated sample frame header");
  }
  constexpr std::size_t kSampleBytes = 4 + 8 + 8;  // series, time, value
  if (r.remaining() != info.count * kSampleBytes) {
    return Result<SampleFrameInfo>::error("sample frame body != its count");
  }
  for (std::uint32_t i = 0; i < info.count; ++i) {
    std::uint32_t series = 0;
    core::TimePoint t = 0;
    double value = 0.0;
    r.u32(series);
    r.i64(t);
    r.f64(value);
    info.max_time = std::max(info.max_time, t);
  }
  return info;
}

Frame encode_logs(const std::vector<LogEvent>& events) {
  Frame f;
  f.type = FrameType::kLogs;
  ByteWriter w(f.payload);
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const auto& e : events) {
    w.i64(e.time);
    w.i64(e.local_time);
    w.u32(core::raw(e.component));
    w.u8(static_cast<std::uint8_t>(e.facility));
    w.u8(static_cast<std::uint8_t>(e.severity));
    w.u64(core::raw(e.job));
    w.str(e.message);
  }
  return f;
}

Result<std::vector<LogEvent>> decode_logs(const Frame& frame) {
  if (frame.type != FrameType::kLogs) {
    return Result<std::vector<LogEvent>>::error("frame is not a log batch");
  }
  ByteReader r(frame.payload);
  std::uint32_t count = 0;
  if (!r.u32(count)) {
    return Result<std::vector<LogEvent>>::error("truncated log frame header");
  }
  std::vector<LogEvent> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    LogEvent e;
    std::uint32_t comp = 0;
    std::uint8_t fac = 0;
    std::uint8_t sev = 0;
    std::uint64_t job = 0;
    if (!r.i64(e.time) || !r.i64(e.local_time) || !r.u32(comp) ||
        !r.u8(fac) || !r.u8(sev) || !r.u64(job) || !r.str(e.message)) {
      return Result<std::vector<LogEvent>>::error("truncated log frame body");
    }
    e.component = core::ComponentId{comp};
    e.facility = static_cast<core::LogFacility>(fac);
    e.severity = static_cast<core::Severity>(sev);
    e.job = core::JobId{job};
    out.push_back(std::move(e));
  }
  return out;
}

std::string format_text(const LogEvent& event,
                        const core::MetricRegistry& registry) {
  const int pri = static_cast<int>(event.facility) * 8 +
                  static_cast<int>(event.severity);
  const std::string comp = event.component == core::kNoComponent
                               ? "-"
                               : registry.component(event.component).name;
  return core::strformat("<%d> %s %s %s: %s", pri,
                         core::format_time(event.time).c_str(), comp.c_str(),
                         std::string(core::to_string(event.facility)).c_str(),
                         event.message.c_str());
}

std::optional<LogEvent> parse_text(const std::string& line,
                                   const core::MetricRegistry& registry) {
  int pri = 0;
  long long days = 0, h = 0, m = 0, s = 0, ms = 0;
  char comp[128] = {0};
  char fac[32] = {0};
  int consumed = 0;
  const int n =
      std::sscanf(line.c_str(), "<%d> %lld+%lld:%lld:%lld.%lld %127s %31[^:]: %n",
                  &pri, &days, &h, &m, &s, &ms, comp, fac, &consumed);
  if (n < 8) return std::nullopt;
  LogEvent e;
  e.time = ((days * 24 + h) * 3600 + m * 60 + s) * core::kSecond +
           ms * core::kMillisecond;
  e.local_time = e.time;  // lost in translation: local stamp not in text form
  e.severity = static_cast<core::Severity>(pri % 8);
  e.facility = static_cast<core::LogFacility>(pri / 8);
  e.job = core::kNoJob;  // lost in translation
  if (auto id = registry.find_component(comp)) {
    e.component = *id;
  } else {
    e.component = core::kNoComponent;
  }
  e.message = line.substr(static_cast<std::size_t>(consumed));
  return e;
}

}  // namespace hpcmon::transport
