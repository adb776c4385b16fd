#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "core/trace.h"
#include "util/clock.h"
#include "util/logging.h"

namespace kflush {
namespace net {
namespace {

constexpr int kListenBacklog = 128;
constexpr size_t kReadChunk = 64 * 1024;

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

// epoll event tag: fd in the low 32 bits, connection generation in the
// high 32. A CloseConnection followed by an accept within one epoll_wait
// batch can hand the same fd number to a new connection; stale events
// still queued in that batch then carry the old generation and are
// skipped instead of dispatching to (and possibly closing) the new
// connection. The listening socket and eventfd use generation 0 — they
// stay open for the server's lifetime, so their fds are never reused.
uint64_t PackTag(int fd, uint32_t gen) {
  return (static_cast<uint64_t>(gen) << 32) | static_cast<uint32_t>(fd);
}

}  // namespace

NetServer::NetServer(ShardedMicroblogSystem* system, ServerOptions options)
    : system_(system), options_(std::move(options)) {
  subs_ = MakeSubscriptions(system_->store()->engine());
  c_sub_pushes_ = subs_->metrics_registry()->counter("sub.pushes");
  MetricsRegistry* r = registry_.get();
  c_connections_accepted_ = r->counter("net.connections_accepted");
  c_connections_closed_ = r->counter("net.connections_closed");
  c_frames_received_ = r->counter("net.frames_received");
  c_bytes_received_ = r->counter("net.bytes_received");
  c_bytes_sent_ = r->counter("net.bytes_sent");
  c_ingest_requests_ = r->counter("net.ingest_requests");
  c_ingest_acks_ = r->counter("net.ingest_acks");
  c_records_offered_ = r->counter("net.records_offered");
  c_records_acked_ = r->counter("net.records_acked");
  c_records_skipped_ = r->counter("net.records_skipped");
  c_records_nacked_ = r->counter("net.records_nacked");
  c_nacks_overloaded_ = r->counter("net.nacks.overloaded");
  c_nacks_stopped_ = r->counter("net.nacks.stopped");
  c_nacks_malformed_ = r->counter("net.nacks.malformed");
  c_nacks_too_large_ = r->counter("net.nacks.too_large");
  c_nacks_internal_ = r->counter("net.nacks.internal");
  c_queries_ = r->counter("net.queries");
  c_read_pauses_ = r->counter("net.read_pauses");
  g_connections_live_ = r->gauge("net.connections_live");
  g_pending_write_bytes_ = r->gauge("net.pending_write_bytes");
  h_stage_decode_ = r->histogram("net.ingest_ack_micros.decode");
  h_stage_admission_ = r->histogram("net.ingest_ack_micros.admission");
  h_stage_commit_ = r->histogram("net.ingest_ack_micros.commit");
  h_stage_respond_ = r->histogram("net.ingest_ack_micros.respond");
  h_query_micros_ = r->histogram("net.query_micros");
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    Status s = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    Status s = Errno("epoll_create1");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    Status s = Errno("eventfd");
    ::close(epoll_fd_);
    ::close(listen_fd_);
    epoll_fd_ = listen_fd_ = -1;
    return s;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = PackTag(listen_fd_, 0);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = PackTag(wake_fd_, 0);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  // Outbox notifications (digestion and flushing threads) ride the same
  // eventfd the stop path uses: queue the sub id, poke the loop. Stop()
  // quiesces this callback before wake_fd_ closes.
  subs_->set_notifier([this](uint64_t sub_id) {
    {
      std::lock_guard<std::mutex> lock(push_mu_);
      pending_push_subs_.push_back(sub_id);
    }
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  });
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  start_micros_ = MonotonicMicros();
  health_.store(static_cast<uint8_t>(ServingState::kServing),
                std::memory_order_release);
  loop_thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void NetServer::RequestStop() {
  // Atomic stores only: this must stay async-signal-safe.
  health_.store(static_cast<uint8_t>(ServingState::kDraining),
                std::memory_order_release);
  stop_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void NetServer::Stop() {
  RequestStop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Quiesce the outbox notifier BEFORE closing wake_fd_: a digestion
  // thread mid-callback must not write into a closed (or recycled) fd.
  if (subs_) subs_->set_notifier(nullptr);
  // The loop thread closed the connections; release the listening state.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

void NetServer::AwaitStop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock,
                [this] { return !running_.load(std::memory_order_acquire); });
}

void NetServer::Loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      KFLUSH_WARN("epoll_wait failed: " << std::strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = static_cast<int>(events[i].data.u64 & 0xFFFFFFFFu);
      const uint32_t gen = static_cast<uint32_t>(events[i].data.u64 >> 32);
      const uint32_t mask = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drained,
                                            sizeof(drained));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptConnections();
        continue;
      }
      auto it = connections_.find(fd);
      // Generation mismatch: the event is for an already-closed
      // connection whose fd number was reused within this batch.
      if (it == connections_.end() || it->second->gen != gen) continue;
      Connection* conn = it->second.get();
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(fd);
        continue;
      }
      if ((mask & EPOLLIN) != 0) HandleReadable(conn);
      // HandleReadable may have closed the connection (protocol error /
      // EOF); re-look it up before the write half.
      it = connections_.find(fd);
      if (it == connections_.end() || it->second->gen != gen) continue;
      if ((mask & EPOLLOUT) != 0) HandleWritable(it->second.get());
      if (shutdown_via_protocol_) break;
    }
    DrainSubscriptionPushes();
    if (shutdown_via_protocol_) break;
  }
  // Teardown on the loop thread: close every connection, then flip
  // running_ so AwaitStop wakes.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (int fd : fds) CloseConnection(fd);
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    running_.store(false, std::memory_order_release);
  }
  stop_cv_.notify_all();
}

void NetServer::AcceptConnections() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      KFLUSH_WARN("accept failed: " << std::strerror(errno));
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->gen = ++next_conn_gen_;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = PackTag(fd, conn->gen);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    connections_[fd] = std::move(conn);
    c_connections_accepted_->Increment();
    g_connections_live_->Add(1);
  }
}

void NetServer::HandleReadable(Connection* conn) {
  char chunk[kReadChunk];
  while (true) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn->in.append(chunk, static_cast<size_t>(n));
      c_bytes_received_->Add(static_cast<uint64_t>(n));
      // Oversized pipelining guard: cap the unparsed buffer at one max
      // frame plus a read chunk; ProcessInput below will drain it.
      if (conn->in.size() >
          options_.max_frame_bytes + kFrameHeaderBytes + kReadChunk) {
        break;
      }
      continue;
    }
    if (n == 0) {  // peer closed
      // Serve whatever complete frames arrived, then close. ProcessInput
      // can destroy *conn (malformed frame whose NACK flushes fully, or
      // a write error), so capture the fd first and only touch the
      // connection again through a fresh lookup.
      const int fd = conn->fd;
      ProcessInput(conn);
      auto it = connections_.find(fd);
      if (it != connections_.end()) {
        FlushWrites(it->second.get());
        CloseConnection(fd);
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn->fd);
    return;
  }
  ProcessInput(conn);
}

void NetServer::ProcessInput(Connection* conn) {
  size_t consumed = 0;
  const int fd = conn->fd;
  while (true) {
    size_t frame_len = 0;
    const FrameStatus fs =
        PeekFrame(conn->in.data() + consumed, conn->in.size() - consumed,
                  options_.max_frame_bytes, &frame_len);
    if (fs == FrameStatus::kNeedMore) break;
    if (fs == FrameStatus::kCorrupt) {
      c_nacks_malformed_->Increment();
      EncodeNack(0, NackReason::kMalformed, 0, &conn->out);
      conn->close_after_flush = true;
      conn->in.clear();
      consumed = 0;
      break;
    }
    Message message;
    const uint64_t decode_start = MonotonicMicros();
    Status s = DecodeMessage(conn->in.data() + consumed, frame_len, &message);
    const uint64_t decode_micros = MonotonicMicros() - decode_start;
    consumed += frame_len;
    c_frames_received_->Increment();
    if (!s.ok()) {
      // The frame was checksum-intact but semantically malformed (or the
      // checksum failed): explicit NACK, then drop the stream — framing
      // can no longer be trusted.
      c_nacks_malformed_->Increment();
      EncodeNack(message.request_id, NackReason::kMalformed, 0, &conn->out);
      conn->close_after_flush = true;
      break;
    }
    HandleMessage(conn, std::move(message), decode_micros);
    if (connections_.count(fd) == 0) {  // handler closed it
      RecordAckStamps();
      return;
    }
    if (conn->close_after_flush || shutdown_via_protocol_) break;
  }
  if (consumed > 0) conn->in.erase(0, consumed);
  FlushWrites(conn);
  // After the write attempt so the respond stage covers the actual
  // write()s, not just the encode.
  RecordAckStamps();
}

void NetServer::RecordAckStamps() {
  if (pending_ack_stamps_.empty()) return;
  const uint64_t now = MonotonicMicros();
  for (const auto& [request_id, encoded_at] : pending_ack_stamps_) {
    h_stage_respond_->Record(now > encoded_at ? now - encoded_at : 0);
  }
  Tracer* tracer = Tracer::Global();
  if (tracer->enabled()) {
    TraceSpan span("net", "ack_write",
                   {TraceArg::Uint("acks", pending_ack_stamps_.size())});
    for (const auto& [request_id, encoded_at] : pending_ack_stamps_) {
      tracer->EmitFlow(TraceEventType::kFlowStep, "net", "request",
                       request_id, {});
    }
  }
  pending_ack_stamps_.clear();
}

void NetServer::HandleMessage(Connection* conn, Message message,
                              uint64_t decode_micros) {
  switch (message.type) {
    case MsgType::kPing:
      EncodeEmpty(MsgType::kPong, message.request_id, &conn->out);
      break;
    case MsgType::kIngest:
      HandleIngest(conn, std::move(message), decode_micros);
      break;
    case MsgType::kQuery:
      HandleQuery(conn, message);
      break;
    case MsgType::kStats:
      EncodeStatsResult(message.request_id, StatsJson(), &conn->out);
      break;
    case MsgType::kStatsProm:
      EncodeStatsResult(message.request_id, PrometheusText(), &conn->out);
      break;
    case MsgType::kHealth:
      EncodeHealthResult(message.request_id, health(),
                         MonotonicMicros() - start_micros_, &conn->out);
      break;
    case MsgType::kSubscribe:
      HandleSubscribe(conn, message);
      break;
    case MsgType::kUnsubscribe:
      HandleUnsubscribe(conn, message);
      break;
    case MsgType::kShutdown:
      // Flip health before the ack goes out so a client probing kHealth
      // right after its kShutdownAck observes kDraining.
      health_.store(static_cast<uint8_t>(ServingState::kDraining),
                    std::memory_order_release);
      EncodeEmpty(MsgType::kShutdownAck, message.request_id, &conn->out);
      conn->close_after_flush = true;
      shutdown_via_protocol_ = true;
      break;
    default:
      // Server-to-client message types arriving at the server are a
      // client bug, not a stream corruption: NACK and keep the stream.
      c_nacks_malformed_->Increment();
      EncodeNack(message.request_id, NackReason::kMalformed, 0, &conn->out);
      break;
  }
}

void NetServer::HandleIngest(Connection* conn, Message message,
                             uint64_t decode_micros) {
  const uint64_t admit_start = MonotonicMicros();
  TraceSpan span("net", "ingest",
                 {TraceArg::Uint("request_id", message.request_id),
                  TraceArg::Uint("records", message.blogs.size())});
  c_ingest_requests_->Increment();
  const uint64_t offered = message.blogs.size();
  c_records_offered_->Add(offered);
  if (offered > options_.max_batch_records) {
    c_nacks_too_large_->Increment();
    c_records_nacked_->Add(offered);
    EncodeNack(message.request_id, NackReason::kTooLarge, 0, &conn->out);
    return;
  }
  const size_t depth = system_->max_queue_depth();
  if (options_.admission_queue_soft_limit > 0 &&
      depth >= options_.admission_queue_soft_limit) {
    c_nacks_overloaded_->Increment();
    c_records_nacked_->Add(offered);
    EncodeNack(message.request_id, NackReason::kOverloaded,
               static_cast<uint32_t>(depth), &conn->out);
    return;
  }
  // The ticket closes the request's commit-stage clock from whichever
  // digestion thread durably commits the last owner sub-batch; it keeps
  // the registry alive on its own, so a completion racing server
  // teardown records into a still-valid histogram.
  auto ticket = std::make_shared<IngestTicket>();
  ticket->request_id = message.request_id;
  ticket->commit_hist = h_stage_commit_;
  ticket->slow_micros = options_.slow_request_micros;
  ticket->registry_keepalive = registry_;
  // Flow id = request_id: the arc the trace viewer draws from this
  // reactor-side span through each shard's digest_batch to the ack write.
  KFLUSH_TRACE_FLOW_BEGIN("net", "request", message.request_id,
                          TraceArg::Uint("records", offered));
  // Stamped immediately before TrySubmit: the commit stage measures
  // submit -> durable commit, and must be set before any sub-batch can
  // be enqueued (a digestion thread may Complete() the ticket before
  // TrySubmit even returns).
  ticket->admit_micros = MonotonicMicros();
  uint64_t admitted = 0;
  uint64_t skipped = 0;
  const ShardedMicroblogSystem::SubmitOutcome outcome =
      system_->TrySubmit(std::move(message.blogs), &admitted, &skipped,
                         ticket);
  switch (outcome) {
    case ShardedMicroblogSystem::SubmitOutcome::kAccepted: {
      c_records_acked_->Add(admitted);
      c_records_skipped_->Add(skipped);
      EncodeIngestAck(message.request_id, static_cast<uint32_t>(admitted),
                      static_cast<uint32_t>(skipped), &conn->out);
      // Stage samples are recorded only for acked requests, so each stage
      // histogram's count stays exactly net.ingest_acks. The respond
      // stamp is drained after the write attempt (RecordAckStamps).
      const uint64_t acked_at = MonotonicMicros();
      h_stage_decode_->Record(decode_micros);
      h_stage_admission_->Record(
          acked_at > admit_start ? acked_at - admit_start : 0);
      c_ingest_acks_->Increment();
      pending_ack_stamps_.emplace_back(message.request_id, acked_at);
      break;
    }
    case ShardedMicroblogSystem::SubmitOutcome::kOverloaded:
      c_nacks_overloaded_->Increment();
      c_records_nacked_->Add(offered);
      EncodeNack(message.request_id, NackReason::kOverloaded,
                 static_cast<uint32_t>(system_->max_queue_depth()),
                 &conn->out);
      break;
    case ShardedMicroblogSystem::SubmitOutcome::kStopped:
      c_nacks_stopped_->Increment();
      c_records_nacked_->Add(offered);
      EncodeNack(message.request_id, NackReason::kStopped, 0, &conn->out);
      break;
  }
}

void NetServer::HandleQuery(Connection* conn, const Message& message) {
  const uint64_t start = MonotonicMicros();
  TraceSpan span("net", "query",
                 {TraceArg::Uint("request_id", message.request_id)});
  c_queries_->Increment();
  if (message.query.terms.empty()) {
    c_nacks_malformed_->Increment();
    EncodeNack(message.request_id, NackReason::kMalformed, 0, &conn->out);
  } else {
    Result<QueryResult> result = system_->Query(message.query);
    if (!result.ok()) {
      c_nacks_internal_->Increment();
      EncodeNack(message.request_id, NackReason::kInternal, 0, &conn->out);
    } else {
      EncodeQueryResult(message.request_id, *result, &conn->out);
    }
  }
  // Single exit: every query outcome (including NACKs) lands one sample,
  // so net.query_micros count == net.queries.
  const uint64_t micros = MonotonicMicros() - start;
  h_query_micros_->Record(micros);
  if (options_.slow_request_micros > 0 &&
      micros >= options_.slow_request_micros) {
    KFLUSH_WARN("slow-request request_id="
                << message.request_id << " query_micros=" << micros
                << " threshold_micros=" << options_.slow_request_micros);
  }
}

void NetServer::HandleSubscribe(Connection* conn, const Message& message) {
  TraceSpan span("net", "subscribe",
                 {TraceArg::Uint("request_id", message.request_id)});
  Result<uint64_t> r = subs_->Subscribe(message.spec);
  if (!r.ok()) {
    if (r.status().IsInvalidArgument()) {
      c_nacks_malformed_->Increment();
      EncodeNack(message.request_id, NackReason::kMalformed, 0, &conn->out);
    } else {
      c_nacks_internal_->Increment();
      EncodeNack(message.request_id, NackReason::kInternal, 0, &conn->out);
    }
    return;
  }
  const uint64_t sub_id = *r;
  conn->sub_ids.push_back(sub_id);
  sub_conns_[sub_id] = conn->fd;
  // The seed snapshot already queued this sub's initial deltas via the
  // notifier; the ack is encoded first, so the client always observes
  // kSubAck before the first kPush.
  EncodeSubAck(message.request_id, sub_id, &conn->out);
}

void NetServer::HandleUnsubscribe(Connection* conn, const Message& message) {
  // A connection may only tear down its own standing queries.
  auto it = sub_conns_.find(message.sub_id);
  if (it == sub_conns_.end() || it->second != conn->fd) {
    c_nacks_malformed_->Increment();
    EncodeNack(message.request_id, NackReason::kMalformed, 0, &conn->out);
    return;
  }
  Status s = subs_->Unsubscribe(message.sub_id);
  if (!s.ok()) {
    c_nacks_internal_->Increment();
    EncodeNack(message.request_id, NackReason::kInternal, 0, &conn->out);
    return;
  }
  sub_conns_.erase(it);
  auto& ids = conn->sub_ids;
  ids.erase(std::remove(ids.begin(), ids.end(), message.sub_id), ids.end());
  EncodeSubAck(message.request_id, message.sub_id, &conn->out);
}

void NetServer::DrainSubscriptionPushes() {
  if (subs_->num_active() == 0 && sub_conns_.empty()) {
    // Still swap out stale notifications queued by just-terminated subs so
    // the pending list cannot grow without bound.
    std::lock_guard<std::mutex> lock(push_mu_);
    pending_push_subs_.clear();
    return;
  }
  // Eviction refills queue without a notification of their own; apply
  // them here so a refill-emitted delta (which does notify) lands in this
  // same wake-up instead of waiting for unrelated traffic.
  subs_->ProcessPendingRefills();
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(push_mu_);
    ids.swap(pending_push_subs_);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<SubDelta> deltas;
  for (uint64_t sub_id : ids) {
    auto sit = sub_conns_.find(sub_id);
    if (sit == sub_conns_.end()) continue;  // already torn down
    auto cit = connections_.find(sit->second);
    if (cit == connections_.end()) continue;
    Connection* conn = cit->second.get();
    const size_t pending = conn->out.size() - conn->out_offset;
    if (pending > options_.conn_write_buffer_limit) {
      // A stale notification, whose deltas an earlier wake-up already
      // pushed, has nothing due: the consumer has lost nothing yet.
      if (!subs_->HasUndrainedDeltas(sub_id)) continue;
      // Slow consumer with deltas due: never silently drop deltas or let
      // them balloon the buffer — terminal-push every standing query on
      // the connection and drop the connection itself.
      DropConnectionSubscriptions(conn, /*terminal_push=*/true);
      conn->close_after_flush = true;
      FlushWrites(conn);
      continue;
    }
    deltas.clear();
    if (!subs_->DrainDeltas(sub_id, &deltas) || deltas.empty()) continue;
    EncodePush(sub_id, /*terminal=*/false, deltas, &conn->out);
    c_sub_pushes_->Increment();
    KFLUSH_TRACE_FLOW_STEP("sub", "subscription", sub_id,
                           TraceArg::Uint("push_deltas", deltas.size()));
    FlushWrites(conn);
  }
}

void NetServer::DropConnectionSubscriptions(Connection* conn,
                                            bool terminal_push) {
  for (uint64_t sub_id : conn->sub_ids) {
    if (terminal_push) {
      EncodePush(sub_id, /*terminal=*/true, {}, &conn->out);
      c_sub_pushes_->Increment();
    }
    // Undrained deltas are counted into sub.deltas_dropped_on_disconnect
    // by the manager; sub.deltas_published stays reconciled.
    subs_->Unsubscribe(sub_id);
    sub_conns_.erase(sub_id);
  }
  conn->sub_ids.clear();
}

void NetServer::FlushWrites(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::write(conn->fd, conn->out.data() + conn->out_offset,
                conn->out.size() - conn->out_offset);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      c_bytes_sent_->Add(static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn->fd);
    return;
  }
  if (conn->out_offset >= conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
    if (conn->close_after_flush) {
      CloseConnection(conn->fd);
      return;
    }
  }
  UpdateInterest(conn);
}

void NetServer::HandleWritable(Connection* conn) { FlushWrites(conn); }

void NetServer::UpdateInterest(Connection* conn) {
  const size_t pending = conn->out.size() - conn->out_offset;
  // Delta-fold this connection's pending bytes into the gauge: the gauge
  // converges to the cross-connection total without a rescan.
  if (pending != conn->pending_reported) {
    g_pending_write_bytes_->Add(static_cast<int64_t>(pending) -
                                static_cast<int64_t>(conn->pending_reported));
    conn->pending_reported = pending;
  }
  const bool want_write = pending > 0;
  // Connection-level backpressure: past the limit, stop reading until
  // the peer drains half of it.
  bool read_paused = conn->read_paused;
  if (!read_paused && pending > options_.conn_write_buffer_limit) {
    read_paused = true;
    c_read_pauses_->Increment();
  } else if (read_paused && pending <= options_.conn_write_buffer_limit / 2) {
    read_paused = false;
  }
  if (want_write == conn->want_write && read_paused == conn->read_paused) {
    return;
  }
  conn->want_write = want_write;
  conn->read_paused = read_paused;
  epoll_event ev{};
  ev.events = (read_paused ? 0u : EPOLLIN) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = PackTag(conn->fd, conn->gen);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  DropConnectionSubscriptions(it->second.get(), /*terminal_push=*/false);
  if (it->second->pending_reported > 0) {
    g_pending_write_bytes_->Add(
        -static_cast<int64_t>(it->second->pending_reported));
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  c_connections_closed_->Increment();
  g_connections_live_->Add(-1);
}

NetServer::Stats NetServer::stats() const {
  // Derived view over the registry — the counters ARE the stats; this
  // struct just freezes one read of each.
  Stats s;
  s.connections_accepted = c_connections_accepted_->value();
  s.connections_closed = c_connections_closed_->value();
  s.frames_received = c_frames_received_->value();
  s.bytes_received = c_bytes_received_->value();
  s.bytes_sent = c_bytes_sent_->value();
  s.ingest_requests = c_ingest_requests_->value();
  s.records_offered = c_records_offered_->value();
  s.records_acked = c_records_acked_->value();
  s.records_skipped = c_records_skipped_->value();
  s.records_nacked = c_records_nacked_->value();
  s.nacks_overloaded = c_nacks_overloaded_->value();
  s.nacks_stopped = c_nacks_stopped_->value();
  s.nacks_malformed = c_nacks_malformed_->value();
  s.nacks_too_large = c_nacks_too_large_->value();
  s.nacks_internal = c_nacks_internal_->value();
  s.queries = c_queries_->value();
  s.read_pauses = c_read_pauses_->value();
  return s;
}

std::string NetServer::PrometheusText() const {
  // Shard-system registries aggregated (per-shard series kept only when
  // there is more than one shard — duplicates otherwise), then the
  // server's own net.* families merged on top. Name collisions cannot
  // happen: shard registries never register net.* instruments.
  MetricsSnapshot merged = system_->store()->AggregatedMetrics(
      /*include_per_shard=*/system_->num_shards() > 1);
  MetricsSnapshot net = registry_->Snapshot();
  for (auto& [name, value] : net.counters) merged.counters[name] = value;
  for (auto& [name, value] : net.gauges) merged.gauges[name] = value;
  for (auto& [name, hist] : net.histograms) {
    merged.histograms[name] = std::move(hist);
  }
  // The sub.* families (including sub.pushes, which the loop thread
  // counts into the manager's registry) ride the same exposition.
  MetricsSnapshot sub = subs_->metrics_registry()->Snapshot();
  for (auto& [name, value] : sub.counters) merged.counters[name] = value;
  for (auto& [name, value] : sub.gauges) merged.gauges[name] = value;
  for (auto& [name, hist] : sub.histograms) {
    merged.histograms[name] = std::move(hist);
  }
  return merged.ToPrometheus();
}

std::string NetServer::StatsJson() const {
  const Stats s = stats();
  std::ostringstream os;
  os << "{\"system\":{"
     << "\"accepted\":" << system_->accepted()
     << ",\"digested_copies\":" << system_->digested()
     << ",\"routed_copies\":" << system_->routed_copies()
     << ",\"skipped_no_terms\":" << system_->skipped_no_terms()
     << ",\"num_shards\":" << system_->num_shards()
     << ",\"queue_depth_total\":" << system_->total_queue_depth()
     << ",\"queue_depth_max\":" << system_->max_queue_depth()
     << "},\"server\":{"
     << "\"connections_accepted\":" << s.connections_accepted
     << ",\"connections_closed\":" << s.connections_closed
     << ",\"frames_received\":" << s.frames_received
     << ",\"bytes_received\":" << s.bytes_received
     << ",\"bytes_sent\":" << s.bytes_sent
     << ",\"ingest_requests\":" << s.ingest_requests
     << ",\"records_offered\":" << s.records_offered
     << ",\"records_acked\":" << s.records_acked
     << ",\"records_skipped\":" << s.records_skipped
     << ",\"records_nacked\":" << s.records_nacked
     << ",\"nacks_overloaded\":" << s.nacks_overloaded
     << ",\"nacks_stopped\":" << s.nacks_stopped
     << ",\"nacks_malformed\":" << s.nacks_malformed
     << ",\"nacks_too_large\":" << s.nacks_too_large
     << ",\"nacks_internal\":" << s.nacks_internal
     << ",\"queries\":" << s.queries
     << ",\"read_pauses\":" << s.read_pauses
     << "},\"subscriptions\":{"
     << "\"active\":" << subs_->num_active()
     << ",\"pushes\":" << c_sub_pushes_->value() << "}}";
  return os.str();
}

}  // namespace net
}  // namespace kflush
