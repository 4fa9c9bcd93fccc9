// Wire codecs for telemetry frames.
//
// The paper's Sec. IV-A case study: Cray's ERD moves "a vast amount of data
// ... transported in a proprietary binary format (a small subset is made
// available to operations staff in text format)". ALCF had to reverse the
// format from source RPMs. hpcmon implements both paths as *documented*
// codecs: a compact binary frame format (what the ERD should have been —
// documented, lossless, raw) and a syslog-style text rendering (the lossy
// translated view). bench/ablation_transport measures the cost of the text
// detour; tests assert the binary path round-trips losslessly while the text
// path drops fields (job attribution, local timestamps) — exactly the
// paper's complaint.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/log_event.hpp"
#include "core/priority.hpp"
#include "core/registry.hpp"
#include "core/result.hpp"
#include "core/sample.hpp"

namespace hpcmon::transport {

enum class FrameType : std::uint8_t {
  kSamples = 1,  // SampleBatch payload
  kLogs = 2,     // LogEvent[] payload
};

/// One framed message: type tag + binary payload. `priority` is a hop-local
/// QoS tag (not serialized): bounded fan-out queues shed lower-priority
/// frames first (see EventRouter::subscribe_buffered). Encoders default it
/// to kStandard; producers that know better (self-telemetry, chaos floods)
/// tag their frames explicitly.
struct Frame {
  FrameType type = FrameType::kSamples;
  core::Priority priority = core::Priority::kStandard;
  std::vector<std::uint8_t> payload;

  std::size_t byte_size() const { return payload.size() + 1; }
};

// -- Primitive byte codec ------------------------------------------------------
// The little-endian scalar/string primitives every binary frame body in
// hpcmon is built from (sample/log frames here, WAL records, and the serve
// tier's request/response bodies). Reader methods return false on underrun
// instead of throwing — adversarial input from a socket must fail cheaply.

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  /// Length-prefixed string, truncated at 65535 bytes.
  void str(const std::string& s) {
    u16(static_cast<std::uint16_t>(std::min<std::size_t>(s.size(), 65535)));
    raw(s.data(), std::min<std::size_t>(s.size(), 65535));
  }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<std::uint8_t>& out_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& in) : in_(in) {}
  bool u8(std::uint8_t& v) { return raw(&v, 1); }
  bool u16(std::uint16_t& v) { return raw(&v, 2); }
  bool u32(std::uint32_t& v) { return raw(&v, 4); }
  bool u64(std::uint64_t& v) { return raw(&v, 8); }
  bool i64(std::int64_t& v) { return raw(&v, 8); }
  bool f64(double& v) { return raw(&v, 8); }
  bool str(std::string& s) {
    std::uint16_t n = 0;
    if (!u16(n)) return false;
    if (pos_ + n > in_.size()) return false;
    s.assign(reinterpret_cast<const char*>(in_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  /// Bytes not yet consumed.
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  bool raw(void* p, std::size_t n) {
    if (pos_ + n > in_.size()) return false;
    std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
};

// -- Binary codec (lossless, documented) -------------------------------------

Frame encode_samples(const core::SampleBatch& batch);
core::Result<core::SampleBatch> decode_samples(const Frame& frame);

/// What a sample frame holds, read without building the batch.
struct SampleFrameInfo {
  std::uint32_t count = 0;
  core::TimePoint max_time = 0;  // newest of the sweep and sample times
};
/// Fails on a frame of another type, or one whose body is not exactly the
/// `count` samples its header declares.
core::Result<SampleFrameInfo> inspect_samples(const Frame& frame);

Frame encode_logs(const std::vector<core::LogEvent>& events);
core::Result<std::vector<core::LogEvent>> decode_logs(const Frame& frame);

// -- Text codec (syslog-style, lossy translation) -----------------------------

/// Render one event as a syslog-like line:
///   "<pri> D+HH:MM:SS.mmm component facility: message"
/// Deliberately loses job attribution and the local (drifted) timestamp —
/// the kind of "vendor translation/filtration" the paper warns "may result
/// in less usable forms of data".
std::string format_text(const core::LogEvent& event,
                        const core::MetricRegistry& registry);

/// Parse a format_text() line back into an event. Component names are
/// resolved through the registry; unknown components yield kNoComponent.
std::optional<core::LogEvent> parse_text(const std::string& line,
                                         const core::MetricRegistry& registry);

}  // namespace hpcmon::transport
