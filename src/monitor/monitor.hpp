// The monitoring service itself: back-end side (daemons / registered
// regions per scheme) and front-end side (the fetch primitive). This is
// the paper's primary contribution, built on the os/net substrates.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "monitor/scheme.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/socket.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "os/procfs.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::monitor {

class ScatterFetcher;

/// Load-info record size on the wire: the socket reply, and the region an
/// RDMA scheme registers and READs.
inline constexpr std::size_t kLoadReplyBytes = 256;

/// Tuning for one monitoring channel.
struct MonitorConfig {
  Scheme scheme = Scheme::RdmaSync;
  /// T: the async schemes' back-end update period (the paper uses 50 ms
  /// unless stated otherwise).
  sim::Duration period = sim::msec(50);

  /// Failure handling: one fetch attempt that has not completed after
  /// this long is abandoned (FetchError::Timeout). <= 0 disables the
  /// deadline (pre-fault behaviour: wait forever). The default is far
  /// above any healthy-path latency so fault-free experiments are
  /// unaffected.
  sim::Duration fetch_timeout = sim::msec(200);
  /// Extra attempts after a failed first one (bounded retry).
  int fetch_retries = 2;
  /// Backoff before retry k (1-based) is retry_backoff * 2^(k-1) —
  /// deterministic exponential backoff, no jitter, so runs replay.
  sim::Duration retry_backoff = sim::msec(2);

  /// Tenant identity of the monitoring plane itself: stamped on the
  /// channel's QP contexts and registered regions so fabric QoS can
  /// protect (or account) monitoring traffic like any other tenant's.
  /// Default 0: the system plane, exempt from per-tenant specs.
  net::TenantId tenant = 0;
};

/// Why a fetch came back without data.
enum class FetchError {
  None,       ///< ok == true
  Timeout,    ///< no reply/completion within fetch_timeout (all attempts)
  Transport,  ///< the fabric error-completed the op (dead peer, loss)
};

inline const char* to_string(FetchError e) {
  switch (e) {
    case FetchError::None: return "none";
    case FetchError::Timeout: return "timeout";
    case FetchError::Transport: return "transport";
  }
  return "?";
}

/// One load reading obtained by the front end, with the timing needed for
/// the latency/staleness/accuracy analyses.
struct MonitorSample {
  os::LoadSnapshot info;
  sim::TimePoint requested_at{};
  sim::TimePoint retrieved_at{};
  bool ok = false;
  FetchError error = FetchError::None;  ///< set when ok == false
  int attempts = 0;  ///< fetch attempts spent (1 on the happy path)

  /// Front-end observed fetch latency.
  sim::Duration latency() const { return retrieved_at - requested_at; }
  /// Age of the data at retrieval (asynchrony + transport delay).
  sim::Duration staleness() const {
    return retrieved_at - info.computed_at;
  }
};

/// Back-end half: spawns the scheme's daemon threads (if any) and/or
/// registers the scheme's memory region on the back-end NIC.
class BackendMonitor {
 public:
  BackendMonitor(net::Fabric& fabric, os::Node& backend, MonitorConfig cfg);
  ~BackendMonitor();

  BackendMonitor(const BackendMonitor&) = delete;
  BackendMonitor& operator=(const BackendMonitor&) = delete;

  /// Socket schemes: attaches a server endpoint and spawns a reporting
  /// thread serving requests from it. Must be called before the
  /// simulation runs. May be called once per monitoring front end — a
  /// back end shared by M front-ends serves M connections with M
  /// reporting threads, exactly how a real per-connection accept loop
  /// would scale.
  void bind_socket(net::Socket& server_end);

  /// RDMA schemes: the rkey the front end reads.
  net::MrKey mr_key() const { return mr_key_; }

  /// Kills the back-end daemon threads (tear-down in sweep experiments).
  void stop();

  os::Node& node() { return backend_; }
  const MonitorConfig& config() const { return cfg_; }

 private:
  net::Fabric& fabric_;
  os::Node& backend_;
  MonitorConfig cfg_;
  /// The registered region (RDMA schemes) and the user-space shared
  /// location (async schemes); under RDMA-Sync the kernel-page image the
  /// DMA hook refreshes.
  os::LoadSnapshot slot_;
  net::MrKey mr_key_{};
  os::SimThread* calc_thread_ = nullptr;
  std::vector<os::SimThread*> report_threads_;  ///< one per bound socket
};

/// Front-end half: issues fetches against one back end.
///
/// fetch() is a one-target round of the scatter engine (monitor/scatter.hpp),
/// the one driver of a fetch's attempts, deadlines and backoffs; the
/// monitor makes that engine on its first fetch() and reuses it. The
/// engine reaches the monitor through private issue/complete halves:
/// issue() (or prepare_read() + a batched post) starts one bounded
/// attempt without waiting, peek() checks non-blockingly whether it
/// resolved, complete() consumes the resolution (paying receive-side
/// costs), and abandon() gives up on an attempt past its deadline.
class FrontendMonitor {
 public:
  /// `client_end` is required for socket schemes, ignored for RDMA ones.
  /// `ctx` (RDMA only) posts this monitor's READs through a shared
  /// QpContext (DCT-style multiplexing + signal-every-k; see
  /// net::VerbsTuning); null keeps a dedicated per-channel context.
  FrontendMonitor(net::Fabric& fabric, os::Node& frontend,
                  BackendMonitor& backend, net::Socket* client_end,
                  std::shared_ptr<net::QpContext> ctx = nullptr);
  ~FrontendMonitor();

  /// Subprogram: one load fetch; fills `out`. Socket schemes do a
  /// request/response over the monitoring connection; RDMA schemes do a
  /// one-sided READ (kernel region for *-Sync, user region for Async).
  ///
  /// Failure-resilient: each attempt is bounded by cfg.fetch_timeout and
  /// retried up to cfg.fetch_retries times with exponential backoff, so
  /// the subprogram ALWAYS resolves — `out.ok` plus `out.error` say how.
  /// The first call joins this monitor to a one-target engine of its
  /// own, whose CQ hears its completions from then on: do not fetch() a
  /// monitor that another engine's rounds still poll. One fetch at a
  /// time per monitor.
  os::Program fetch(os::SimThread& self, MonitorSample& out);

  const MonitorConfig& config() const { return backend_->config(); }
  Scheme scheme() const { return backend_->config().scheme; }
  int backend_node_id() const { return backend_->node().id; }

  /// Ground truth at this instant, straight from the back end's kernel
  /// (the paper's fine-grained kernel module). For accuracy analysis only.
  os::LoadSnapshot ground_truth() const {
    return backend_->node().procfs().snapshot();
  }

 private:
  // --- issue/complete halves (the scatter engine's interface) -----------
  friend class ScatterFetcher;

  /// One in-flight fetch attempt created by issue()/prepare_read().
  struct FetchOp {
    std::uint64_t wr_id = 0;     ///< RDMA: CQ demux key (CQ-unique)
    sim::TimePoint deadline{};   ///< this attempt's give-up instant
  };

  /// Non-blocking resolution state of an attempt.
  enum class OpStatus {
    Pending,    ///< nothing arrived yet
    Ok,         ///< reply/completion ready for complete()
    Transport,  ///< RDMA error completion ready for complete()
  };

  bool is_rdma_transport() const { return qp_.has_value(); }

  /// Subprogram (sockets only): issues one attempt — flushes stale
  /// replies, then sends the request, paying its CPU cost — and returns
  /// without waiting. RDMA attempts go through prepare_read().
  os::Program issue(os::SimThread& self, FetchOp& op, sim::TimePoint deadline);

  /// RDMA only: readies an attempt for a merged multi-READ post. Allocates
  /// the wr_id and fills the batch entry; the caller posts the batch via
  /// net::post_read_batch, paying one doorbell for many attempts.
  net::ReadBatchEntry prepare_read(FetchOp& op, sim::TimePoint deadline);

  /// Non-blocking: has this attempt resolved?
  OpStatus peek(const FetchOp& op) const;

  /// Subprogram: consumes a resolved attempt (peek() != Pending), paying
  /// the receive-side costs (socket recv syscall + copy; RDMA completions
  /// are free to reap). Fills out.ok / out.error / out.info — never
  /// retrieved_at or attempts, which belong to the engine driving it.
  os::Program complete(os::SimThread& self, FetchOp& op, MonitorSample& out,
                       OpStatus status);

  /// Abandons an attempt past its deadline and marks `out` timed out.
  /// RDMA: the wr_id is forgotten at the CQ, which discards the late
  /// completion centrally. Sockets: a late reply stays queued and is
  /// flushed by the next issue().
  void abandon(FetchOp& op, MonitorSample& out);

  /// Joins a shared completion channel (a scatter engine's CQ): RDMA QPs
  /// re-point their completions at `shared`; socket replies additionally
  /// notify `shared`'s wait queue. Call with no attempt in flight.
  void bind_completion_channel(net::CompletionQueue& shared);

  // Telemetry of the fetches the engine drives (no-ops without a
  // registry). Each fetch and each of its attempts becomes one
  // "monitor.<fe>" ring record when it finishes: a = back-end node,
  // b = the fetch's key (shared by its attempts), x = duration in ns.

  /// Starts a fetch: returns its key, 1, 2, ... per monitor.
  std::int64_t start_fetch();
  /// One attempt resolved with `error` (None = ok) after `took`;
  /// `backoff` when the engine waits before the next attempt
  /// (monitor.backoff_waits).
  void record_attempt(std::int64_t key, FetchError error, sim::Duration took,
                      bool backoff);
  /// One fetch resolved: its "fetch.<outcome>" record, the latency,
  /// staleness and attempt histograms (by scheme and front-end node) and
  /// the outcome and retry counters (by scheme and back-end node).
  void record_sample(std::int64_t key, const MonitorSample& s);

  /// Caches instrument pointers on first use (no-op without a registry).
  void resolve_metrics();

  BackendMonitor* backend_;
  os::Node* frontend_;
  net::Socket* sock_ = nullptr;
  /// fetch()'s one-target engine and its sample, made on the first call;
  /// declared before the QP, whose completions it may receive.
  std::unique_ptr<ScatterFetcher> solo_;
  std::vector<MonitorSample> solo_out_;
  net::CompletionQueue own_cq_;
  net::CompletionQueue* cq_ = &own_cq_;  ///< shared CQ once engine-bound
  std::optional<net::QueuePair> qp_;
  // Telemetry instruments (null when disabled / no registry installed).
  bool metrics_resolved_ = false;
  telemetry::Registry* reg_ = nullptr;
  telemetry::HistogramMetric* m_latency_ = nullptr;
  telemetry::HistogramMetric* m_staleness_ = nullptr;
  telemetry::HistogramMetric* m_attempts_ = nullptr;
  telemetry::Counter* m_ok_ = nullptr;
  telemetry::Counter* m_timeout_ = nullptr;
  telemetry::Counter* m_transport_ = nullptr;
  telemetry::Counter* m_retries_ = nullptr;
  telemetry::Counter* m_backoff_waits_ = nullptr;
  telemetry::FlightRing* fr_ = nullptr;  ///< "monitor.<fe>" ring
  std::int64_t fetches_ = 0;  ///< fetches started (record keys)
};

/// Convenience bundle: wires a complete monitoring channel (connection for
/// socket schemes, QP/MR for RDMA) between a front-end and a back-end node.
class MonitorChannel {
 public:
  /// Creates the back-end half too (single-front-end wiring). `ctx`
  /// optionally shares a verbs context across channels (RDMA only).
  MonitorChannel(net::Fabric& fabric, os::Node& frontend, os::Node& backend,
                 MonitorConfig cfg,
                 std::shared_ptr<net::QpContext> ctx = nullptr);

  /// Attaches a new front end to an EXISTING back-end monitor (scale-out
  /// wiring: M front-ends share one daemon set / one registered MR per
  /// back end instead of instantiating M of them). Socket schemes get
  /// their own connection and reporting thread; RDMA schemes just a QP
  /// against the shared MR. `shared` must outlive this channel.
  MonitorChannel(net::Fabric& fabric, os::Node& frontend,
                 BackendMonitor& shared,
                 std::shared_ptr<net::QpContext> ctx = nullptr);

  FrontendMonitor& frontend() { return *frontend_monitor_; }
  BackendMonitor& backend() { return *backend_monitor_; }

 private:
  std::unique_ptr<BackendMonitor> owned_backend_;  ///< null when shared
  BackendMonitor* backend_monitor_ = nullptr;
  net::Connection* conn_ = nullptr;  // owned by the fabric
  std::unique_ptr<FrontendMonitor> frontend_monitor_;
};

}  // namespace rdmamon::monitor
