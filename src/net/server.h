// NetServer: the epoll event-loop front-end that makes the sharded
// system an actual service. One loop thread multiplexes every
// connection; frames are decoded with net/protocol.h, ingest goes
// through ShardedMicroblogSystem::TrySubmit (all-or-nothing, explicit
// NACK on overload — the event loop never blocks on a full shard
// queue), queries run inline through the query engine, and two
// backpressure mechanisms bound memory:
//
//   * admission control: an ingest batch is NACKed kOverloaded when any
//     owner shard's queue is full (TrySubmit) or, earlier, when the
//     deepest shard queue reaches admission_queue_soft_limit — the
//     server-side view of the system.queue_depth gauge.
//   * connection-level backpressure: a connection whose pending response
//     bytes exceed conn_write_buffer_limit stops being read (EPOLLIN is
//     dropped) until the client drains its side, so one slow reader
//     cannot balloon server memory.
//
// The server also fronts the continuous-query subsystem: kSubscribe
// registers a standing top-k with the SubscriptionManager, and the
// digestion threads' outbox notifications wake the loop (via the same
// eventfd the stop path uses) to drain deltas into server-initiated
// kPush frames. A subscriber whose connection is already past the write
// buffer limit when a push comes due is not silently throttled — the
// server sends a terminal kPush (NACK-style), unsubscribes every
// standing query on the connection, and drops the connection.
//
// See docs/INTERNALS.md, "Networking" and "Continuous queries".

#ifndef KFLUSH_NET_SERVER_H_
#define KFLUSH_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/metrics_registry.h"
#include "core/sharded_system.h"
#include "net/protocol.h"
#include "sub/subscription_manager.h"
#include "util/status.h"

namespace kflush {
namespace net {

struct ServerOptions {
  /// Listen address. Loopback by default; the harness and tests never
  /// need more.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back via port().
  uint16_t port = 0;
  /// Ingest batches above this record count are NACKed kTooLarge.
  size_t max_batch_records = 16 * 1024;
  /// Frames above this payload size are a protocol error (connection
  /// closed); bounds per-connection buffering.
  size_t max_frame_bytes = 8u << 20;
  /// NACK ingest (kOverloaded) once the deepest shard ingest queue
  /// reaches this many batches, before even routing the batch. 0
  /// disables the early check; TrySubmit's full-queue reservation check
  /// still applies either way.
  size_t admission_queue_soft_limit = 0;
  /// Stop reading a connection while its pending response bytes exceed
  /// this; resume once drained below half of it.
  size_t conn_write_buffer_limit = 4u << 20;
  /// Emit one structured slow-request log line (keyed by request_id) when
  /// an accepted ingest's commit stage — admission to durable commit of
  /// the last owner sub-batch — or a query reaches this many
  /// microseconds. 0 disables.
  uint64_t slow_request_micros = 0;
};

class NetServer {
 public:
  /// Monotonic server-side tallies, readable while running. acked/nacked
  /// record counts partition offered records exactly: nothing is ever
  /// silently dropped.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;
    uint64_t frames_received = 0;
    uint64_t bytes_received = 0;
    uint64_t bytes_sent = 0;
    uint64_t ingest_requests = 0;
    uint64_t records_offered = 0;
    uint64_t records_acked = 0;     // admitted with terms
    uint64_t records_skipped = 0;   // admitted, dropped as term-less
    uint64_t records_nacked = 0;
    uint64_t nacks_overloaded = 0;
    uint64_t nacks_stopped = 0;
    uint64_t nacks_malformed = 0;
    uint64_t nacks_too_large = 0;
    uint64_t nacks_internal = 0;
    uint64_t queries = 0;
    uint64_t read_pauses = 0;  // connection-level backpressure engaged
  };

  /// `system` must outlive the server and be Start()ed by the caller.
  NetServer(ShardedMicroblogSystem* system, ServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and launches the event-loop thread.
  Status Start();

  /// Stops the loop, closes every connection, joins. Idempotent; safe to
  /// call concurrently with a protocol-initiated shutdown.
  void Stop();

  /// Async-signal-safe stop request: flags the loop and pokes its
  /// eventfd, nothing else (no join, no frees). A signal handler calls
  /// this; the main thread then AwaitStop()s and Stop()s normally.
  void RequestStop();

  /// Blocks until the server stops (protocol kShutdown, Stop(), or a
  /// fatal loop error).
  void AwaitStop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  Stats stats() const;

  /// The JSON document served for kStats requests (system counters,
  /// queue depths, server tallies).
  std::string StatsJson() const;

  /// The Prometheus exposition served for kStatsProm requests: the
  /// aggregated shard snapshots (plus per-shard series when sharded)
  /// merged with the server's own net.* registry.
  std::string PrometheusText() const;

  /// Lifecycle as served for kHealth requests: kStarting until Start()
  /// succeeds, kServing while the loop accepts work, kDraining once a
  /// stop was requested (signal, Stop(), or protocol shutdown).
  ServingState health() const {
    return static_cast<ServingState>(
        health_.load(std::memory_order_acquire));
  }

  /// The registry backing every net.* series (counters, gauges, and the
  /// per-stage ingest latency histograms). Lives as long as the last
  /// in-flight IngestTicket, not just the server (shared_ptr).
  const std::shared_ptr<MetricsRegistry>& metrics_registry() const {
    return registry_;
  }

  /// The continuous-query subsystem this server fronts (sub.* families
  /// live in its registry; tests reconcile push counts through it).
  SubscriptionManager* subscriptions() { return subs_.get(); }
  const SubscriptionManager* subscriptions() const { return subs_.get(); }

 private:
  struct Connection {
    int fd = -1;
    /// Distinguishes this connection from an earlier one that had the
    /// same fd number; epoll events are tagged with it so stale events
    /// left in a batch after a close never dispatch to a successor.
    uint32_t gen = 0;
    std::string in;      // unparsed request bytes
    std::string out;     // unsent response bytes
    size_t out_offset = 0;
    /// Pending response bytes last folded into net.pending_write_bytes;
    /// the gauge moves by deltas so it converges across connections.
    size_t pending_reported = 0;
    bool want_write = false;    // EPOLLOUT armed
    bool read_paused = false;   // EPOLLIN dropped (backpressure)
    bool close_after_flush = false;
    /// Standing subscriptions registered over this connection; pushes
    /// route back here and a close unsubscribes them all.
    std::vector<uint64_t> sub_ids;
  };

  void Loop();
  void AcceptConnections();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  /// Parses and serves every complete frame in conn->in.
  void ProcessInput(Connection* conn);
  void HandleMessage(Connection* conn, Message message,
                     uint64_t decode_micros);
  void HandleIngest(Connection* conn, Message message,
                    uint64_t decode_micros);
  void HandleQuery(Connection* conn, const Message& message);
  void HandleSubscribe(Connection* conn, const Message& message);
  void HandleUnsubscribe(Connection* conn, const Message& message);
  /// Drains notified subscriptions into kPush frames on the loop thread.
  /// A connection already past the write buffer limit gets the terminal
  /// treatment (DropConnectionSubscriptions + close) instead of more
  /// buffered deltas.
  void DrainSubscriptionPushes();
  /// Unsubscribes every standing query on `conn`. With `terminal_push`,
  /// each gets a terminal kPush frame first (slow-consumer NACK); without
  /// it the connection is already gone and undrained deltas count as
  /// dropped inside the manager.
  void DropConnectionSubscriptions(Connection* conn, bool terminal_push);
  /// Drains pending_ack_stamps_ into the respond-stage histogram after a
  /// write attempt. Must run before ProcessInput returns on every path —
  /// stage-histogram counts reconcile exactly against acked requests.
  void RecordAckStamps();
  /// write()s as much of conn->out as the socket takes; arms EPOLLOUT on
  /// a partial write and engages read-pause past the buffer limit.
  void FlushWrites(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CloseConnection(int fd);
  void RequestStopFromLoop();

  ShardedMicroblogSystem* system_;
  ServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  bool shutdown_via_protocol_ = false;  // loop-thread only

  std::map<int, std::unique_ptr<Connection>> connections_;  // loop-thread only
  uint32_t next_conn_gen_ = 0;  // loop-thread only; 0 reserved for non-conn fds

  // Continuous queries. The manager is constructed with the server (its
  // sinks hook the system's shard stores) so the pointer is stable; the
  // notifier is installed at Start and quiesced in Stop before wake_fd_
  // closes, because digestion threads fire it.
  std::unique_ptr<SubscriptionManager> subs_;
  std::map<uint64_t, int> sub_conns_;  // sub_id -> fd; loop-thread only
  std::mutex push_mu_;
  std::vector<uint64_t> pending_push_subs_;  // guarded by push_mu_

  mutable std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  // The single source of truth for every server tally: the registry's
  // net.* families (Stats/StatsJson are derived views). Owned via
  // shared_ptr because in-flight IngestTickets keep the commit-stage
  // histogram alive past server teardown.
  std::shared_ptr<MetricsRegistry> registry_ =
      std::make_shared<MetricsRegistry>();

  // Instruments resolved once in the constructor (pointers are stable for
  // the registry's lifetime). Written by the loop thread (commit-stage
  // histogram: digestion threads), read from any thread.
  Counter* c_connections_accepted_;
  Counter* c_connections_closed_;
  Counter* c_frames_received_;
  Counter* c_bytes_received_;
  Counter* c_bytes_sent_;
  Counter* c_ingest_requests_;
  Counter* c_ingest_acks_;  // acked ingest requests (stage-count anchor)
  Counter* c_records_offered_;
  Counter* c_records_acked_;
  Counter* c_records_skipped_;
  Counter* c_records_nacked_;
  Counter* c_nacks_overloaded_;
  Counter* c_nacks_stopped_;
  Counter* c_nacks_malformed_;
  Counter* c_nacks_too_large_;
  Counter* c_nacks_internal_;
  Counter* c_queries_;
  Counter* c_read_pauses_;
  // Lives in the manager's registry (sub.* family), not registry_: one
  // registry carries the whole subscription story, published through
  // PrometheusText like the shard snapshots.
  Counter* c_sub_pushes_;
  Gauge* g_connections_live_;
  Gauge* g_pending_write_bytes_;
  // Ack latency decomposition, recorded once per *acked* ingest request:
  // decode (frame parse), admission (handler entry -> TrySubmit outcome),
  // commit (submit -> durable commit of the last owner sub-batch, i.e.
  // queue wait + digest + WAL fsync), respond (ack encoded -> write
  // attempt). Each histogram's count equals net.ingest_acks exactly.
  ConcurrentHistogram* h_stage_decode_;
  ConcurrentHistogram* h_stage_admission_;
  ConcurrentHistogram* h_stage_commit_;
  ConcurrentHistogram* h_stage_respond_;
  ConcurrentHistogram* h_query_micros_;

  /// (request_id, ack-encode timestamp) for acks encoded during the
  /// current ProcessInput pass; drained by RecordAckStamps. Loop-thread
  /// only.
  std::vector<std::pair<uint64_t, uint64_t>> pending_ack_stamps_;

  std::atomic<uint8_t> health_{
      static_cast<uint8_t>(ServingState::kStarting)};
  uint64_t start_micros_ = 0;  // MonotonicMicros() at successful Start()
};

}  // namespace net
}  // namespace kflush

#endif  // KFLUSH_NET_SERVER_H_
