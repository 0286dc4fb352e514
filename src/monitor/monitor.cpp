#include "monitor/monitor.hpp"

#include <cassert>

#include "monitor/scatter.hpp"

namespace rdmamon::monitor {

namespace {

/// Flight-record kinds of a finished fetch and of one of its attempts,
/// indexed by the outcome's FetchError (None = ok).
constexpr const char* kFetchKind[] = {"fetch.ok", "fetch.timeout",
                                      "fetch.transport"};
constexpr const char* kAttemptKind[] = {"attempt.ok", "attempt.timeout",
                                        "attempt.transport"};

/// Socket load-request size on the wire.
constexpr std::size_t kLoadRequestBytes = 64;

/// Records a resolved attempt in `out`: the load reading it carried, or a
/// transport error.
void take_reading(MonitorSample& out, const os::LoadSnapshot& info) {
  out.info = info;
  out.ok = true;
  out.error = FetchError::None;
}
void take_completion(MonitorSample& out, const net::Completion& c) {
  if (c.status == net::WcStatus::Success) {
    take_reading(out, c.data.as<os::LoadSnapshot>());
  } else {
    out.ok = false;
    out.error = FetchError::Transport;
  }
}

/// Load-calculating thread (Fig 1a / 2a, steps 1-4): read /proc, copy the
/// result to the shared location, sleep T, repeat.
os::Program calc_thread_body(os::SimThread& self, os::Node* node,
                             os::LoadSnapshot* slot, sim::Duration period) {
  for (;;) {
    co_await os::ComputeKernel{node->procfs().read_cost()};
    *slot = node->procfs().snapshot();
    // Copying into the known memory location / registered region.
    co_await os::Compute{sim::usec(1)};
    co_await os::SleepFor{period};
  }
  (void)self;
}

/// Load-reporting thread for Socket-Async (Fig 1a, steps a-c): serve each
/// request from the shared location without touching /proc.
os::Program report_async_body(os::SimThread& self, net::Socket* sock,
                              os::LoadSnapshot* slot) {
  for (;;) {
    net::Message req;
    co_await sock->recv(self, req);
    co_await os::Compute{sim::usec(1)};  // read the known memory location
    co_await sock->send(self, kLoadReplyBytes, *slot);
  }
}

/// Socket-Sync back-end thread (Fig 1b): compute fresh load per request.
os::Program report_sync_body(os::SimThread& self, os::Node* node,
                             net::Socket* sock) {
  for (;;) {
    net::Message req;
    co_await sock->recv(self, req);
    co_await os::ComputeKernel{node->procfs().read_cost()};
    co_await sock->send(self, kLoadReplyBytes, node->procfs().snapshot());
  }
}

}  // namespace

BackendMonitor::BackendMonitor(net::Fabric& fabric, os::Node& backend,
                               MonitorConfig cfg)
    : fabric_(fabric), backend_(backend), cfg_(cfg) {
  if (has_calc_thread(cfg_.scheme)) {
    calc_thread_ = backend_.spawn(
        "mon-calc", [this](os::SimThread& t) {
          return calc_thread_body(t, &backend_, &slot_, cfg_.period);
        });
  }
  if (is_rdma(cfg_.scheme)) {
    // The region is slot_. RDMA-Sync / e-RDMA-Sync register the kernel
    // statistics pages: the DMA hook refreshes the image at the DMA
    // instant, so a remote READ samples them with zero back-end CPU
    // involvement — including the transient irq_stat state that a
    // synchronized /proc read can never observe. RDMA-Async registers
    // the user-space slot the calc thread updates. Read-only, per the
    // paper's security argument.
    net::DmaHook on_dma;
    if (is_kernel_direct(cfg_.scheme)) {
      on_dma = [this](net::Verb, std::span<std::byte>&) {
        slot_ = backend_.procfs().snapshot_dma();
      };
    }
    mr_key_ = fabric_.nic(backend_.id)
                  .register_mr(net::bytes_of(slot_), std::move(on_dma),
                               /*remote_writable=*/false, cfg_.tenant);
  }
}

BackendMonitor::~BackendMonitor() = default;

void BackendMonitor::bind_socket(net::Socket& server_end) {
  assert(has_report_thread(cfg_.scheme));
  if (cfg_.scheme == Scheme::SocketAsync) {
    report_threads_.push_back(backend_.spawn(
        "mon-report", [this, sock = &server_end](os::SimThread& t) {
          return report_async_body(t, sock, &slot_);
        }));
  } else {
    report_threads_.push_back(backend_.spawn(
        "mon-report", [this, sock = &server_end](os::SimThread& t) {
          return report_sync_body(t, &backend_, sock);
        }));
  }
}

void BackendMonitor::stop() {
  if (calc_thread_) backend_.sched().kill(calc_thread_);
  for (os::SimThread* t : report_threads_) backend_.sched().kill(t);
  calc_thread_ = nullptr;
  report_threads_.clear();
}

FrontendMonitor::FrontendMonitor(net::Fabric& fabric, os::Node& frontend,
                                 BackendMonitor& backend,
                                 net::Socket* client_end,
                                 std::shared_ptr<net::QpContext> ctx)
    : backend_(&backend), frontend_(&frontend), sock_(client_end) {
  if (is_rdma(backend.config().scheme)) {
    qp_.emplace(fabric.nic(frontend.id), backend.node().id, std::move(ctx));
    // Monitoring READs carry the plane's tenant tag so fabric QoS can
    // weight them against noisy neighbors (0 = untagged system plane).
    if (backend.config().tenant != 0) qp_->set_tenant(backend.config().tenant);
  } else {
    assert(client_end != nullptr &&
           "socket schemes need the monitoring connection's client end");
  }
}

FrontendMonitor::~FrontendMonitor() = default;

void FrontendMonitor::resolve_metrics() {
  metrics_resolved_ = true;
  reg_ = telemetry::Registry::of(frontend_->simu());
  if (reg_ == nullptr) return;
  fr_ = reg_->recorder().ring("monitor." + frontend_->name());
  // Distributions per {scheme, front end}: every channel of a front end
  // feeds the same three histograms, so one more back end adds counters,
  // not buckets. Counts stay per {scheme, back end}.
  const telemetry::Labels by_fe{{"scheme", to_string(scheme())},
                                {"frontend", frontend_->name()}};
  m_latency_ = &reg_->histogram("monitor.fetch.latency_ns", by_fe);
  m_staleness_ = &reg_->histogram("monitor.fetch.staleness_ns", by_fe);
  m_attempts_ = &reg_->histogram("monitor.fetch.attempts", by_fe);
  const telemetry::Labels by_chan{{"scheme", to_string(scheme())},
                                  {"backend", backend_->node().name()}};
  auto outcome = [&](const char* result) -> telemetry::Counter& {
    telemetry::Labels l = by_chan;
    l.add("result", result);
    return reg_->counter("monitor.fetch.outcome", l);
  };
  m_ok_ = &outcome("ok");
  m_timeout_ = &outcome("timeout");
  m_transport_ = &outcome("transport");
  m_retries_ = &reg_->counter("monitor.fetch.retries", by_chan);
  m_backoff_waits_ = &reg_->counter("monitor.backoff_waits", by_chan);
}

std::int64_t FrontendMonitor::start_fetch() {
  if (!metrics_resolved_) resolve_metrics();
  return ++fetches_;
}

void FrontendMonitor::record_attempt(std::int64_t key, FetchError error,
                                     sim::Duration took, bool backoff) {
  telemetry::fr_record(fr_, kAttemptKind[static_cast<int>(error)],
                       backend_node_id(), key, static_cast<double>(took.ns));
  if (backoff) telemetry::add(m_backoff_waits_);
}

void FrontendMonitor::record_sample(std::int64_t key, const MonitorSample& s) {
  if constexpr (!telemetry::kEnabled) return;
  if (reg_ == nullptr) return;
  telemetry::fr_record(fr_, kFetchKind[static_cast<int>(s.error)],
                       backend_node_id(), key,
                       static_cast<double>(s.latency().ns));
  telemetry::add(s.ok ? m_ok_
                      : (s.error == FetchError::Timeout ? m_timeout_
                                                        : m_transport_));
  telemetry::observe(m_attempts_, static_cast<double>(s.attempts));
  if (s.attempts > 1) {
    telemetry::add(m_retries_, static_cast<std::uint64_t>(s.attempts - 1));
  }
  if (!s.ok) return;  // latency/staleness are meaningful on success only
  telemetry::observe(m_latency_, s.latency());
  telemetry::observe(m_staleness_, s.staleness());
}

os::Program FrontendMonitor::fetch(os::SimThread& self, MonitorSample& out) {
  if (!solo_) {
    solo_ = std::make_unique<ScatterFetcher>();
    solo_->add(*this);
  }
  co_await solo_->round_all(self, solo_out_);
  out = solo_out_.front();
}

os::Program FrontendMonitor::issue(os::SimThread& self, FetchOp& op,
                                   sim::TimePoint deadline) {
  assert(!qp_.has_value() && "issue is socket-only");
  op.deadline = deadline;
  // The monitoring protocol carries no sequence numbers, so a reply to
  // an abandoned earlier request may still be queued: flush before
  // asking again (at worst we answer with a marginally older reading).
  sock_->drain_rx();
  co_await sock_->send(self, kLoadRequestBytes);
}

net::ReadBatchEntry FrontendMonitor::prepare_read(FetchOp& op,
                                                  sim::TimePoint deadline) {
  assert(qp_.has_value() && "prepare_read is RDMA-only");
  op.deadline = deadline;
  op.wr_id = qp_->cq().alloc_wr_id();
  return net::ReadBatchEntry{&*qp_,
                             {.rkey = backend_->mr_key(),
                              .len = kLoadReplyBytes,
                              .wr_id = op.wr_id}};
}

bool FrontendMonitor::peek(const FetchOp& op) const {
  return qp_ ? op.landed.has_value() : sock_->has_data();
}

os::Program FrontendMonitor::complete(os::SimThread& self, FetchOp& op,
                                      MonitorSample& out) {
  assert(peek(op) && "complete() requires a resolution");
  if (qp_) {
    take_completion(out, *op.landed);
    op.landed.reset();  // frees the READ's block
    co_return;  // reaping a completion costs no simulated CPU
  }
  net::Message reply;
  co_await sock_->recv_ready(self, reply);
  take_reading(out, reply.payload.as<os::LoadSnapshot>());
}

void FrontendMonitor::abandon(FetchOp& op, MonitorSample& out) {
  out.ok = false;
  out.error = FetchError::Timeout;
  // Sockets need nothing: a late reply stays queued and the next issue()
  // flushes it (drain_rx).
  if (qp_) qp_->cq().forget(op.wr_id);
}

void FrontendMonitor::bind_completion_channel(net::CompletionQueue& shared) {
  if (qp_) {
    qp_->bind_cq(shared);
  } else {
    sock_->add_rx_watcher(&shared.wait_queue());
  }
}

MonitorChannel::MonitorChannel(net::Fabric& fabric, os::Node& frontend,
                               os::Node& backend, MonitorConfig cfg,
                               std::shared_ptr<net::QpContext> ctx) {
  owned_backend_ = std::make_unique<BackendMonitor>(fabric, backend, cfg);
  backend_monitor_ = owned_backend_.get();
  net::Socket* client_end = nullptr;
  if (!is_rdma(cfg.scheme)) {
    conn_ = &fabric.connect(frontend, backend);
    backend_monitor_->bind_socket(conn_->end_b());
    client_end = &conn_->end_a();
  }
  frontend_monitor_ = std::make_unique<FrontendMonitor>(
      fabric, frontend, *backend_monitor_, client_end, std::move(ctx));
}

MonitorChannel::MonitorChannel(net::Fabric& fabric, os::Node& frontend,
                               BackendMonitor& shared,
                               std::shared_ptr<net::QpContext> ctx)
    : backend_monitor_(&shared) {
  net::Socket* client_end = nullptr;
  if (!is_rdma(shared.config().scheme)) {
    conn_ = &fabric.connect(frontend, shared.node());
    backend_monitor_->bind_socket(conn_->end_b());
    client_end = &conn_->end_a();
  }
  frontend_monitor_ = std::make_unique<FrontendMonitor>(
      fabric, frontend, *backend_monitor_, client_end, std::move(ctx));
}

}  // namespace rdmamon::monitor
