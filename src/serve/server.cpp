#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "core/strings.hpp"
#include "core/topic.hpp"
#include "serve/sockio.hpp"
#include "transport/codec.hpp"

namespace hpcmon::serve {

namespace {

/// StageTimer-style RAII span into a serve histogram (the serve tier has
/// its own request/fanout stages rather than widening the pipeline enum).
std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Span {
 public:
  explicit Span(obs::Histogram& hist)
      : hist_(hist), t0_(std::chrono::steady_clock::now()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    hist_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count()));
  }

 private:
  obs::Histogram& hist_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

ServeServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

ServeServer::ServeServer(ServeConfig config, ServeHooks hooks)
    : config_(std::move(config)), hooks_(std::move(hooks)) {
  attach_to(config_.obs != nullptr ? *config_.obs : own_obs_);
}

ServeServer::~ServeServer() { stop(); }

void ServeServer::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"serve.connections", "conns", "live client connections"},
                  &connections_);
  registry.attach({"serve.connections_total", "conns",
                   "connections accepted since start"},
                  &connections_total_);
  registry.attach({"serve.subscriptions", "subs", "live subscriptions"},
                  &subscriptions_);
  registry.attach({"serve.requests", "reqs", "requests handled"}, &requests_);
  registry.attach(
      {"serve.request_errors", "reqs", "requests answered with kError"},
      &request_errors_);
  registry.attach({"serve.bad_frames", "frames",
                   "protocol violations (connection dropped)"},
                  &bad_frames_);
  registry.attach({"serve.bytes_in", "bytes", "bytes read from clients"},
                  &bytes_in_);
  registry.attach({"serve.bytes_out", "bytes", "bytes written to clients"},
                  &bytes_out_);
  registry.attach({"serve.deltas", "frames",
                   "subscription delta frames enqueued"},
                  &deltas_enqueued_);
  registry.attach({"serve.egress_evicted_bulk", "frames",
                   "bulk deltas shed by full egress queues (first to go)"},
                  &evicted_bulk_);
  registry.attach({"serve.egress_evicted_standard", "frames",
                   "standard deltas shed by full egress queues"},
                  &evicted_standard_);
  registry.attach(
      {"serve.egress_coalesced_critical", "samples",
       "critical samples folded into latest-state instead of dropped"},
      &coalesced_critical_);
  registry.attach({"serve.reads_paused", "conns",
                   "times a connection's reads were paused (egress over cap)"},
                  &reads_paused_);
  registry.attach({"serve.idle_closed", "conns",
                   "connections reaped by the idle deadline"},
                  &idle_closed_);
  registry.attach({"serve.relay_applied_batches", "batches",
                   "relay appends applied (novel (source, seq))"},
                  &relay_applied_batches_);
  registry.attach({"serve.relay_applied_samples", "samples",
                   "samples applied through the relay tap"},
                  &relay_applied_samples_);
  registry.attach({"serve.relay_duplicates", "batches",
                   "relay appends acked without re-apply (already applied)"},
                  &relay_duplicates_);
  registry.attach({"serve.relay_window_rejects", "batches",
                   "relay appends beyond the dedupe window (resent later)"},
                  &relay_window_rejects_);
  registry.attach({"serve.relay_refused_samples", "samples",
                   "relayed samples refused for a SeriesId past the wire "
                   "limit"},
                  &relay_refused_samples_);
  registry.attach({"serve.relay_sources", "sources",
                   "relay sources with dedupe state"},
                  &relay_sources_gauge_);
  registry.attach({"serve.rollup_queries", "reqs",
                   "kRollupQuery requests answered from the rollup tree"},
                  &rollup_queries_);
  registry.attach({"serve.rollup_deltas", "frames",
                   "kRollupDelta pushes enqueued to subscribers"},
                  &rollup_deltas_);
  registry.attach({"serve.rollup_subscriptions", "subs",
                   "live rollup-level subscriptions"},
                  &rollup_subs_gauge_);
  registry.attach({"serve.egress_depth_hwm", "frames",
                   "high-water mark of any connection's egress queue"},
                  &egress_depth_hwm_);
  registry.attach({"serve.request_us", "us", "request handling latency"},
                  &request_us_);
  registry.attach({"serve.fanout_us", "us",
                   "publish_batch subscription fan-out latency"},
                  &delta_fanout_us_);
}

bool ServeServer::start() {
  if (running_) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    error_ = core::strformat("socket: %s", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 128) < 0) {
    error_ = core::strformat("bind/listen: %s", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    error_ = core::strformat("epoll/eventfd: %s", std::strerror(errno));
    stop();
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stopping_ = false;
  const std::size_t n_writers = std::max<std::size_t>(1, config_.writer_threads);
  writers_.clear();
  for (std::size_t i = 0; i < n_writers; ++i) {
    writers_.push_back(std::make_unique<Writer>());
  }
  for (std::size_t i = 0; i < n_writers; ++i) {
    writers_[i]->thread = std::thread([this, i] { writer_loop(i); });
  }
  reactor_ = std::thread([this] { reactor_loop(); });
  running_ = true;
  return true;
}

void ServeServer::stop() {
  if (stopping_.exchange(true)) {
    // Second caller (destructor after explicit stop): nothing left to join.
  }
  wake_reactor();
  if (reactor_.joinable()) reactor_.join();
  for (auto& w : writers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->nudged = true;
    }
    w->cv.notify_all();
    if (w->thread.joinable()) w->thread.join();
  }
  writers_.clear();
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs_.clear();
    subscriptions_.set(0);
  }
  conns_.clear();  // destructors close the fds
  connections_.set(0);
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  running_ = false;
}

void ServeServer::wake_reactor() {
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] auto n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void ServeServer::notify_writer(std::uint32_t conn_id) {
  auto& w = *writers_[conn_id % writers_.size()];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.nudged = true;
  }
  w.cv.notify_one();
}

void ServeServer::reactor_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 10);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        [[maybe_unused]] auto r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      auto conn = it->second;  // keep alive across close_conn
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) read_ready(conn);
    }
    sweep_closed();
    if (config_.idle_timeout_ms > 0) reap_idle();
    // Resume paused connections whose writer drained the egress queue.
    for (auto& [fd, conn] : conns_) {
      if (conn->paused.load(std::memory_order_relaxed)) {
        update_pause_state(conn);
      }
    }
  }
}

void ServeServer::reap_idle() {
  const std::int64_t now = steady_ms();
  std::vector<std::shared_ptr<Connection>> idle;
  for (auto& [fd, conn] : conns_) {
    if (now - conn->last_activity_ms.load(std::memory_order_relaxed) >
        config_.idle_timeout_ms) {
      idle.push_back(conn);
    }
  }
  for (auto& conn : idle) {
    idle_closed_.add();
    close_conn(conn);
  }
}

void ServeServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: back to epoll
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.sndbuf_bytes,
                   sizeof(config_.sndbuf_bytes));
    }
    EgressCounters counters;
    counters.evicted_bulk = &evicted_bulk_;
    counters.evicted_standard = &evicted_standard_;
    counters.coalesced_critical = &coalesced_critical_;
    counters.deltas_enqueued = &deltas_enqueued_;
    counters.depth_hwm = &egress_depth_hwm_;
    auto conn = std::make_shared<Connection>(fd, next_conn_id_++,
                                             config_.egress_cap, counters);
    conn->assembler = WireAssembler(config_.max_frame_bytes);
    conn->last_activity_ms.store(steady_ms(), std::memory_order_relaxed);
    conns_[fd] = conn;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    auto& w = *writers_[conn->id % writers_.size()];
    {
      std::lock_guard<std::mutex> lock(w.mu);
      w.conns.push_back(conn);
    }
    connections_total_.add();
    connections_.set(static_cast<double>(conns_.size()));
  }
}

void ServeServer::read_ready(const std::shared_ptr<Connection>& conn) {
  std::uint8_t buf[64 * 1024];
  while (!conn->closed) {
    const ssize_t n =
        faulty_recv(conn->fd, buf, sizeof(buf), config_.socket_faults);
    if (n > 0) {
      bytes_in_.add(static_cast<std::uint64_t>(n));
      conn->last_activity_ms.store(steady_ms(), std::memory_order_relaxed);
      if (!conn->assembler.feed(buf, static_cast<std::size_t>(n))) {
        bad_frames_.add();
        close_conn(conn);
        return;
      }
      while (auto frame = conn->assembler.next()) {
        handle_frame(conn, *frame);
        if (conn->assembler.errored()) {
          bad_frames_.add();
          close_conn(conn);
          return;
        }
      }
      continue;
    }
    if (n == 0) {
      close_conn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(conn);
    return;
  }
  update_pause_state(conn);
}

void ServeServer::update_pause_state(const std::shared_ptr<Connection>& conn) {
  const bool paused = conn->paused.load(std::memory_order_relaxed);
  if (!paused && conn->egress.over_cap()) {
    epoll_event ev{};
    ev.events = 0;  // stay registered, stop reading: TCP backpressure
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->paused.store(true, std::memory_order_relaxed);
    reads_paused_.add();
  } else if (paused && conn->egress.depth() <= config_.egress_cap / 2) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->paused.store(false, std::memory_order_relaxed);
  }
}

void ServeServer::close_conn(const std::shared_ptr<Connection>& conn) {
  if (conns_.erase(conn->fd) == 0) return;  // already closed
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  conn->closed = true;
  auto& w = *writers_[conn->id % writers_.size()];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.conns.erase(std::remove(w.conns.begin(), w.conns.end(), conn),
                  w.conns.end());
  }
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                               [&](const Subscription& s) {
                                 return s.conn == conn;
                               }),
                subs_.end());
    subscriptions_.set(static_cast<double>(subs_.size()));
    rollup_subs_.erase(std::remove_if(rollup_subs_.begin(),
                                      rollup_subs_.end(),
                                      [&](const RollupSub& s) {
                                        return s.conn == conn;
                                      }),
                       rollup_subs_.end());
    rollup_sub_count_.store(rollup_subs_.size(), std::memory_order_relaxed);
    rollup_subs_gauge_.set(static_cast<double>(rollup_subs_.size()));
  }
  connections_.set(static_cast<double>(conns_.size()));
}

void ServeServer::sweep_closed() {
  // Writers flag dead sockets; the reactor owns the maps, so it finalizes.
  std::vector<std::shared_ptr<Connection>> dead;
  for (auto& [fd, conn] : conns_) {
    if (conn->closed) dead.push_back(conn);
  }
  for (auto& conn : dead) {
    conn->closed = false;  // let close_conn's erase run once
    close_conn(conn);
    conn->closed = true;
  }
}

void ServeServer::reply(const std::shared_ptr<Connection>& conn, MsgType type,
                        std::uint32_t request_id,
                        const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> bytes;
  append_wire_frame(bytes, type, request_id, body);
  conn->egress.push_response(std::move(bytes));
  notify_writer(conn->id);
}

void ServeServer::reply_error(const std::shared_ptr<Connection>& conn,
                              std::uint32_t request_id,
                              const std::string& message) {
  request_errors_.add();
  reply(conn, MsgType::kError, request_id, encode_string(message));
}

void ServeServer::handle_frame(const std::shared_ptr<Connection>& conn,
                               const WireFrame& frame) {
  Span span(request_us_);
  requests_.add();
  conn->requests.fetch_add(1, std::memory_order_relaxed);
  const auto id = frame.request_id;
  switch (frame.type) {
    case MsgType::kPing:
      reply(conn, MsgType::kOk, id, {});
      return;
    case MsgType::kQueryRange: {
      RangeReq req;
      if (!decode_range_req(frame.body, req) || !hooks_.query_range) {
        reply_error(conn, id, "bad query_range request");
        return;
      }
      reply(conn, MsgType::kOk, id,
            encode_points(hooks_.query_range(req.series, req.range)));
      return;
    }
    case MsgType::kAggregate: {
      AggregateReq req;
      if (!decode_aggregate_req(frame.body, req) || !hooks_.aggregate) {
        reply_error(conn, id, "bad aggregate request");
        return;
      }
      reply(conn, MsgType::kOk, id,
            encode_scalar(hooks_.aggregate(req.series, req.range, req.agg)));
      return;
    }
    case MsgType::kDownsample: {
      DownsampleReq req;
      if (!decode_downsample_req(frame.body, req) || !hooks_.downsample) {
        reply_error(conn, id, "bad downsample request");
        return;
      }
      reply(conn, MsgType::kOk, id,
            encode_points(hooks_.downsample(req.series, req.range, req.bucket,
                                            req.agg)));
      return;
    }
    case MsgType::kLatest: {
      RangeReq req;  // range ignored; series-only body reuses the layout
      if (!decode_range_req(frame.body, req) || !hooks_.latest) {
        reply_error(conn, id, "bad latest request");
        return;
      }
      reply(conn, MsgType::kOk, id, encode_latest(hooks_.latest(req.series)));
      return;
    }
    case MsgType::kScanOpen: {
      ScanOpenReq req;
      if (!decode_scan_open_req(frame.body, req) || !hooks_.scan) {
        reply_error(conn, id, "bad scan_open request");
        return;
      }
      const std::uint32_t cursor_id = conn->next_cursor++;
      ScanCursor cur;
      cur.series = req.series;
      cur.range = req.range;
      cur.next_begin = req.range.begin;
      cur.page_points = std::max<std::uint32_t>(
          1, std::min<std::uint32_t>(
                 req.page_points,
                 static_cast<std::uint32_t>(config_.scan_page_cap)));
      conn->cursors[cursor_id] = cur;
      reply(conn, MsgType::kOk, id, encode_u32(cursor_id));
      return;
    }
    case MsgType::kScanNext: {
      std::uint32_t cursor_id = 0;
      if (!decode_u32(frame.body, cursor_id)) {
        reply_error(conn, id, "bad scan_next request");
        return;
      }
      auto it = conn->cursors.find(cursor_id);
      if (it == conn->cursors.end()) {
        reply_error(conn, id, "unknown scan cursor");
        return;
      }
      ScanCursor& cur = it->second;
      ScanPage page;
      page.points.reserve(cur.page_points);
      hooks_.scan(cur.series, {cur.next_begin, cur.range.end},
                  [&](const core::TimedValue& tv) {
                    page.points.push_back(tv);
                    return page.points.size() < cur.page_points;
                  });
      page.done = page.points.size() < cur.page_points;
      if (page.done) {
        conn->cursors.erase(it);  // exhausted cursors auto-close
      } else {
        cur.next_begin = page.points.back().time + 1;
      }
      reply(conn, MsgType::kOk, id, encode_scan_page(page));
      return;
    }
    case MsgType::kScanClose: {
      std::uint32_t cursor_id = 0;
      if (!decode_u32(frame.body, cursor_id)) {
        reply_error(conn, id, "bad scan_close request");
        return;
      }
      conn->cursors.erase(cursor_id);
      reply(conn, MsgType::kOk, id, {});
      return;
    }
    case MsgType::kRelayHello: {
      RelayHello hello;
      if (!decode_relay_hello(frame.body, hello) || !hooks_.relay_apply) {
        reply_error(conn, id, "bad relay hello");
        return;
      }
      RelayAck ack;
      {
        std::lock_guard<std::mutex> lock(relay_mu_);
        ack.watermark = relay_sources_[hello.source_id].watermark;
        relay_sources_gauge_.set(static_cast<double>(relay_sources_.size()));
      }
      reply(conn, MsgType::kOk, id, encode_relay_ack(ack));
      return;
    }
    case MsgType::kRelayAppend:
      handle_relay_append(conn, frame);
      return;
    case MsgType::kSubscribe:
      handle_subscribe(conn, frame);
      return;
    case MsgType::kUnsubscribe: {
      std::uint32_t sub_id = 0;
      if (!decode_u32(frame.body, sub_id)) {
        reply_error(conn, id, "bad unsubscribe request");
        return;
      }
      {
        std::lock_guard<std::mutex> lock(subs_mu_);
        subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                                   [&](const Subscription& s) {
                                     return s.id == sub_id && s.conn == conn;
                                   }),
                    subs_.end());
        subscriptions_.set(static_cast<double>(subs_.size()));
      }
      conn->egress.forget_subscription(sub_id);
      reply(conn, MsgType::kOk, id, {});
      return;
    }
    case MsgType::kRollupQuery: {
      RollupReq req;
      if (!decode_rollup_req(frame.body, req) || !hooks_.rollup_query) {
        reply_error(conn, id, "bad rollup query");
        return;
      }
      rollup_queries_.add();
      RollupStatMsg msg;
      if (const auto s = hooks_.rollup_query(req.component, req.metric)) {
        msg.found = true;
        msg.stat = *s;
      }
      reply(conn, MsgType::kOk, id, encode_rollup_stat(msg));
      return;
    }
    case MsgType::kRollupSub: {
      RollupReq req;
      if (!decode_rollup_req(frame.body, req) || !hooks_.rollup_query) {
        reply_error(conn, id, "bad rollup subscribe");
        return;
      }
      rollup_queries_.add();
      RollupSubAck ack;
      if (const auto s = hooks_.rollup_query(req.component, req.metric)) {
        ack.current.found = true;
        ack.current.stat = *s;
      }
      {
        std::lock_guard<std::mutex> lock(subs_mu_);
        RollupSub sub;
        sub.id = next_sub_id_++;
        sub.conn = conn;
        sub.component = std::move(req.component);
        sub.metric = std::move(req.metric);
        ack.sub_id = sub.id;
        rollup_subs_.push_back(std::move(sub));
        rollup_sub_count_.store(rollup_subs_.size(),
                                std::memory_order_relaxed);
        rollup_subs_gauge_.set(static_cast<double>(rollup_subs_.size()));
      }
      reply(conn, MsgType::kOk, id, encode_rollup_sub_ack(ack));
      return;
    }
    case MsgType::kRollupUnsub: {
      std::uint32_t sub_id = 0;
      if (!decode_u32(frame.body, sub_id)) {
        reply_error(conn, id, "bad rollup unsubscribe");
        return;
      }
      {
        std::lock_guard<std::mutex> lock(subs_mu_);
        rollup_subs_.erase(
            std::remove_if(rollup_subs_.begin(), rollup_subs_.end(),
                           [&](const RollupSub& s) {
                             return s.id == sub_id && s.conn == conn;
                           }),
            rollup_subs_.end());
        rollup_sub_count_.store(rollup_subs_.size(),
                                std::memory_order_relaxed);
        rollup_subs_gauge_.set(static_cast<double>(rollup_subs_.size()));
      }
      reply(conn, MsgType::kOk, id, {});
      return;
    }
    case MsgType::kStatus: {
      if (!hooks_.status) {
        reply_error(conn, id, "no status hook");
        return;
      }
      reply(conn, MsgType::kOk, id, encode_string(hooks_.status()));
      return;
    }
    case MsgType::kSetMode: {
      std::optional<core::DegradationMode> mode;
      if (!decode_set_mode(frame.body, mode)) {
        reply_error(conn, id, "bad set_mode request");
        return;
      }
      if (!hooks_.set_mode || !hooks_.set_mode(mode)) {
        reply_error(conn, id, "degradation override unavailable");
        return;
      }
      reply(conn, MsgType::kOk, id, {});
      return;
    }
    case MsgType::kWalRotate: {
      if (!hooks_.wal_rotate || !hooks_.wal_rotate()) {
        reply_error(conn, id, "WAL rotate unavailable");
        return;
      }
      reply(conn, MsgType::kOk, id, {});
      return;
    }
    case MsgType::kListConns: {
      std::vector<ConnInfo> rows;
      rows.reserve(conns_.size());
      for (const auto& [fd, c] : conns_) {
        ConnInfo info;
        info.id = c->id;
        info.requests = c->requests.load(std::memory_order_relaxed);
        info.tx_bytes = c->tx_bytes.load(std::memory_order_relaxed);
        info.egress_depth = static_cast<std::uint32_t>(c->egress.depth());
        info.subscriptions = 0;
        {
          std::lock_guard<std::mutex> lock(subs_mu_);
          for (const auto& s : subs_) {
            if (s.conn == c) ++info.subscriptions;
          }
        }
        rows.push_back(info);
      }
      reply(conn, MsgType::kOk, id, encode_conn_list(rows));
      return;
    }
    default:
      reply_error(conn, id, core::strformat("unknown message type %u",
                                            static_cast<unsigned>(frame.type)));
      return;
  }
}

void ServeServer::handle_relay_append(const std::shared_ptr<Connection>& conn,
                                      const WireFrame& frame) {
  RelayAppend req;
  if (!decode_relay_append(frame.body, req) || !hooks_.relay_apply ||
      req.seq == 0) {
    reply_error(conn, frame.request_id, "bad relay append");
    return;
  }
  RelayAck ack;
  std::lock_guard<std::mutex> lock(relay_mu_);
  RelaySource& src = relay_sources_[req.source_id];
  if (req.seq <= src.watermark || src.applied_above.count(req.seq) != 0) {
    // At-least-once resend of something already applied: ack, never
    // re-apply — this is the "exactly-applied" half of the contract.
    ack.duplicate = true;
    relay_duplicates_.add();
  } else if (req.seq >
             src.watermark +
                 std::max<std::size_t>(1, config_.relay_dedupe_window)) {
    // Beyond the bounded window: acking it would either grow dedupe state
    // without bound or (worse) force the watermark past seqs never seen.
    // Ack at the current watermark without applying; the client holds the
    // batch and resends once the watermark catches up. The window is
    // floored at 1 — a zero window would refuse even the next in-order
    // seq and livelock the client against its own resends.
    relay_window_rejects_.add();
  } else {
    transport::Frame f;
    f.type = transport::FrameType::kSamples;
    f.priority = req.priority;
    f.payload = std::move(req.payload);
    auto decoded = transport::decode_samples(f);
    if (!decoded.is_ok()) {
      // A corrupt payload is a protocol violation, not an ack: the client
      // must not advance its watermark past data the server never applied.
      reply_error(conn, frame.request_id, "bad relay payload");
      return;
    }
    // A hostile id would grow every per-series table to its length; the
    // rest of the batch still applies, so the relay never wedges on it.
    auto& samples = decoded.value().samples;
    relay_refused_samples_.add(std::erase_if(samples, [](const auto& s) {
      return core::raw(s.series) >= core::kWireSeriesIdLimit;
    }));
    const std::size_t applied =
        hooks_.relay_apply(decoded.value(), req.priority);
    src.applied_above.insert(req.seq);
    while (src.applied_above.erase(src.watermark + 1) != 0) ++src.watermark;
    ack.applied = true;
    relay_applied_batches_.add();
    relay_applied_samples_.add(applied);
  }
  ack.watermark = src.watermark;
  relay_sources_gauge_.set(static_cast<double>(relay_sources_.size()));
  reply(conn, MsgType::kOk, frame.request_id, encode_relay_ack(ack));
}

void ServeServer::handle_subscribe(const std::shared_ptr<Connection>& conn,
                                   const WireFrame& frame) {
  SubscribeReq req;
  if (!decode_subscribe_req(frame.body, req) || hooks_.registry == nullptr ||
      !hooks_.latest) {
    reply_error(conn, frame.request_id, "bad subscribe request");
    return;
  }
  std::lock_guard<std::mutex> lock(subs_mu_);
  Subscription sub;
  sub.id = next_sub_id_++;
  sub.conn = conn;
  sub.pattern = req.pattern;
  // Match every known series now (the cache handles ones born later).
  SubscribeAck ack;
  ack.sub_id = sub.id;
  core::SampleBatch snapshot;
  const auto count = hooks_.registry->series_count();
  sub.match_cache.assign(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const auto sid = core::SeriesId{static_cast<std::uint32_t>(i)};
    const auto name = hooks_.registry->series_name(sid);
    const bool hit = core::topic_match(sub.pattern, name);
    sub.match_cache[i] = hit ? 1 : 2;
    if (!hit) continue;
    ack.matched.emplace_back(sid, name);
    if (const auto tv = hooks_.latest(sid)) {
      snapshot.samples.push_back({sid, tv->time, tv->value});
      snapshot.sweep_time = std::max(snapshot.sweep_time, tv->time);
    }
  }
  // Ack, then snapshot, then (once registered) deltas: all three ride the
  // same FIFO egress queue, so the client provably sees snapshot-then-deltas.
  reply(conn, MsgType::kOk, frame.request_id, encode_subscribe_ack(ack));
  std::vector<std::uint8_t> snap_bytes;
  append_wire_frame(snap_bytes, MsgType::kSnapshot, sub.id,
                    transport::encode_samples(snapshot).payload);
  conn->egress.push_response(std::move(snap_bytes));
  notify_writer(conn->id);
  subs_.push_back(std::move(sub));
  subscriptions_.set(static_cast<double>(subs_.size()));
}

bool ServeServer::sub_matches(Subscription& sub, core::SeriesId id) {
  const auto idx = static_cast<std::size_t>(core::raw(id));
  if (idx >= sub.match_cache.size()) {
    // An id the registry never interned (a relayed node-local id) matches
    // nothing, so the cache never outgrows the registry.
    if (idx >= hooks_.registry->series_count()) return false;
    sub.match_cache.resize(idx + 1, 0);
  }
  if (sub.match_cache[idx] == 0) {
    const bool hit =
        core::topic_match(sub.pattern, hooks_.registry->series_name(id));
    sub.match_cache[idx] = hit ? 1 : 2;
  }
  return sub.match_cache[idx] == 1;
}

std::size_t ServeServer::publish_batch(const core::SampleBatch& batch) {
  if (batch.samples.empty() || hooks_.registry == nullptr) return 0;
  std::lock_guard<std::mutex> lock(subs_mu_);
  if (subs_.empty()) return 0;
  Span span(delta_fanout_us_);
  // Resolve (and memoize) each sample's priority class once per batch. Only
  // samples a subscription matched get here, so every id is interned (see
  // sub_matches) and the cache stays within the registry's size.
  const auto priority_of = [this](core::SeriesId id) {
    const auto idx = static_cast<std::size_t>(core::raw(id));
    if (idx >= pri_cache_.size()) pri_cache_.resize(idx + 1, 255);
    if (pri_cache_[idx] == 255) {
      pri_cache_[idx] =
          static_cast<std::uint8_t>(hooks_.registry->series_priority(id));
    }
    return static_cast<core::Priority>(pri_cache_[idx]);
  };
  std::size_t enqueued = 0;
  for (auto& sub : subs_) {
    if (sub.conn->closed) continue;
    // One delta per priority class: the egress door reasons about a queued
    // frame's class as a whole (same shape as ingest's PrioritizedBatch).
    std::array<core::SampleBatch, core::kPriorityClasses> by_class;
    bool any = false;
    for (const auto& s : batch.samples) {
      if (!sub_matches(sub, s.series)) continue;
      auto& cls = by_class[static_cast<std::size_t>(priority_of(s.series))];
      cls.samples.push_back(s);
      cls.sweep_time = batch.sweep_time;
      any = true;
    }
    if (!any) continue;
    for (std::size_t c = 0; c < core::kPriorityClasses; ++c) {
      if (by_class[c].samples.empty()) continue;
      if (sub.conn->egress.push_delta(sub.id, static_cast<core::Priority>(c),
                                      by_class[c])) {
        ++enqueued;
      }
    }
    notify_writer(sub.conn->id);
  }
  return enqueued;
}

bool ServeServer::has_rollup_subs() const {
  return rollup_sub_count_.load(std::memory_order_relaxed) > 0;
}

std::size_t ServeServer::publish_rollup(std::span<const RollupDelta> changed) {
  if (changed.empty()) return 0;
  std::lock_guard<std::mutex> lock(subs_mu_);
  if (rollup_subs_.empty()) return 0;
  std::size_t enqueued = 0;
  for (const auto& d : changed) {
    for (auto& sub : rollup_subs_) {
      if (sub.conn->closed) continue;
      if (sub.component != d.component || sub.metric != d.metric) continue;
      std::vector<std::uint8_t> bytes;
      append_wire_frame(bytes, MsgType::kRollupDelta, sub.id,
                        encode_rollup_delta(d));
      sub.conn->egress.push_response(std::move(bytes));
      notify_writer(sub.conn->id);
      rollup_deltas_.add();
      ++enqueued;
    }
  }
  return enqueued;
}

void ServeServer::writer_loop(std::size_t writer_index) {
  auto& w = *writers_[writer_index];
  std::vector<std::shared_ptr<Connection>> conns;
  while (!stopping_) {
    {
      std::unique_lock<std::mutex> lock(w.mu);
      w.cv.wait_for(lock, std::chrono::milliseconds(10),
                    [&] { return w.nudged || stopping_.load(); });
      w.nudged = false;
      conns = w.conns;
    }
    for (auto& conn : conns) {
      if (conn->closed) continue;
      // Refill the write buffer from the egress queue when drained.
      if (conn->woff == conn->wbuf.size()) {
        conn->wbuf.clear();
        conn->woff = 0;
        conn->egress.take_bytes(conn->wbuf);
      }
      while (conn->woff < conn->wbuf.size() && !conn->closed) {
        const ssize_t n =
            faulty_send(conn->fd, conn->wbuf.data() + conn->woff,
                        conn->wbuf.size() - conn->woff, config_.socket_faults);
        if (n > 0) {
          conn->woff += static_cast<std::size_t>(n);
          conn->tx_bytes.fetch_add(static_cast<std::uint64_t>(n),
                                   std::memory_order_relaxed);
          bytes_out_.add(static_cast<std::uint64_t>(n));
          conn->last_activity_ms.store(steady_ms(),
                                       std::memory_order_relaxed);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        conn->closed = true;  // dead peer: reactor finalizes on next sweep
        wake_reactor();
        break;
      }
      // A paused connection whose queue just drained: nudge the reactor so
      // it re-arms EPOLLIN without waiting for its poll timeout.
      if (conn->paused.load(std::memory_order_relaxed) &&
          !conn->egress.over_cap()) {
        wake_reactor();
      }
    }
  }
}

ServeStats ServeServer::stats() const {
  ServeStats s;
  s.connections_total = connections_total_.value();
  s.requests = requests_.value();
  s.request_errors = request_errors_.value();
  s.bad_frames = bad_frames_.value();
  s.bytes_in = bytes_in_.value();
  s.bytes_out = bytes_out_.value();
  s.deltas_enqueued = deltas_enqueued_.value();
  s.egress_evicted_bulk = evicted_bulk_.value();
  s.egress_evicted_standard = evicted_standard_.value();
  s.egress_coalesced_critical = coalesced_critical_.value();
  s.reads_paused = reads_paused_.value();
  s.idle_closed = idle_closed_.value();
  s.relay_applied_batches = relay_applied_batches_.value();
  s.relay_applied_samples = relay_applied_samples_.value();
  s.relay_duplicates = relay_duplicates_.value();
  s.relay_window_rejects = relay_window_rejects_.value();
  s.relay_refused_samples = relay_refused_samples_.value();
  s.rollup_queries = rollup_queries_.value();
  s.rollup_deltas = rollup_deltas_.value();
  s.connections = static_cast<std::size_t>(connections_.value());
  s.subscriptions = static_cast<std::size_t>(subscriptions_.value());
  s.rollup_subscriptions =
      static_cast<std::size_t>(rollup_subs_gauge_.value());
  s.relay_sources = static_cast<std::size_t>(relay_sources_gauge_.value());
  return s;
}

}  // namespace hpcmon::serve
