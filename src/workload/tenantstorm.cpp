#include "workload/tenantstorm.hpp"

#include <string>
#include <utility>

namespace rdmamon::workload {

namespace {
/// MrThrash: regions cycled per target (sized past the NIC cache so every
/// touch misses).
constexpr std::size_t kMrPool = 64;
}  // namespace

TenantStormConfig TenantStormConfig::bandwidth_hog() {
  TenantStormConfig c;
  c.kind = StormKind::BandwidthHog;
  c.contexts = 4;
  c.op_bytes = 1 << 20;
  c.max_outstanding = 512;
  c.post_period = sim::usec(2);
  c.burst = 64;
  return c;
}

TenantStormConfig TenantStormConfig::mr_thrash() {
  TenantStormConfig c;
  c.kind = StormKind::MrThrash;
  c.contexts = 16;
  c.op_bytes = 256;
  c.max_outstanding = 128;
  c.post_period = sim::usec(2);
  return c;
}

TenantStorm::TenantStorm(net::Fabric& fabric, os::Node& home,
                         std::vector<StormTarget> targets,
                         TenantStormConfig cfg)
    : fabric_(&fabric), home_(&home), targets_(std::move(targets)), cfg_(cfg) {
  // Contexts are created once and survive stop()/start() cycles, so a
  // restarted storm reuses the same NIC context-cache identities (like a
  // process that went quiet, not a reconnect).
  for (int i = 0; i < cfg_.contexts; ++i) {
    auto ctx = std::make_shared<net::QpContext>(fabric_->nic(home_->id));
    ctx->set_tenant(cfg_.tenant);
    ctxs_.push_back(std::move(ctx));
  }
  pools_.resize(targets_.size());
}

TenantStorm::~TenantStorm() { stop(); }

void TenantStorm::start() {
  if (running_) return;
  running_ = true;
  const std::string tag = "storm" + std::to_string(cfg_.tenant);
  for (int i = 0; i < cfg_.contexts; ++i) {
    threads_.push_back(
        home_->spawn(tag + "-post" + std::to_string(i),
                     [this, i](os::SimThread& t) { return poster_body(t, i); }));
  }
  threads_.push_back(home_->spawn(
      tag + "-drain", [this](os::SimThread& t) { return drain_body(t); }));
}

void TenantStorm::stop() {
  if (!running_) return;
  running_ = false;
  for (auto* t : threads_) home_->sched().kill(t);
  threads_.clear();
}

void TenantStorm::post_one(int idx, std::size_t& rr) {
  const std::size_t ti = rr++ % targets_.size();
  const StormTarget& tgt = targets_[ti];
  net::MrKey mr = tgt.mr;
  if (cfg_.kind == StormKind::MrThrash) {
    // Churn: retire the oldest region of this tenant's pool on the target
    // NIC and register a fresh one, then READ it. Every new rkey is a
    // fresh MR-cache entry at the target, so a bounded NIC context cache
    // keeps inserting — and keeps evicting other tenants' entries.
    net::Nic& tnic = fabric_->nic(tgt.node);
    auto& pool = pools_[ti];
    if (pool.size() >= kMrPool) {
      tnic.deregister_mr(pool.front());
      pool.erase(pool.begin());
    }
    // An empty image: the storm only costs wire and DMA time (wr.len).
    mr = tnic.register_mr({}, nullptr, /*remote_writable=*/false, cfg_.tenant);
    pool.push_back(mr);
  }
  const std::uint64_t wr_id = cq_.alloc_wr_id();
  ctxs_[static_cast<std::size_t>(idx)]->post(
      tgt.node, {.rkey = mr, .len = cfg_.op_bytes, .wr_id = wr_id}, cq_,
      /*force_signal=*/true);
  ++posted_;
  ++outstanding_;
}

os::Program TenantStorm::poster_body(os::SimThread& self, int idx) {
  (void)self;
  // Stagger start targets so `contexts` posters spread over the victims
  // instead of marching in lockstep.
  std::size_t rr = static_cast<std::size_t>(idx);
  for (;;) {
    while (outstanding_ >= cfg_.max_outstanding) {
      co_await os::WaitOn{&window_wq_};
    }
    // One doorbell rings in a whole WR list (the RDMAbox-style batch the
    // verbs layer models too), up to the window.
    co_await os::Compute{net::kDoorbellCost};
    for (int b = 0; b < cfg_.burst && outstanding_ < cfg_.max_outstanding;
         ++b) {
      post_one(idx, rr);
    }
    co_await os::SleepFor{cfg_.post_period};
  }
}

os::Program TenantStorm::drain_body(os::SimThread& self) {
  (void)self;
  for (;;) {
    while (!cq_.empty()) {
      const net::Completion c = cq_.pop();
      if (c.status == net::WcStatus::Success) {
        ++completed_;
        bytes_completed_ += cfg_.op_bytes;
      } else {
        ++failed_;
      }
      // Guard against stop()/start() races: WRs posted by a previous
      // incarnation may still land after counters were mid-window.
      if (outstanding_ > 0) --outstanding_;
    }
    window_wq_.notify_all();
    co_await os::WaitOn{&cq_.wait_queue()};
  }
}

void drive_storms(fault::FaultInjector& injector,
                  std::vector<TenantStorm*> storms) {
  injector.set_storm_hook(
      [storms = std::move(storms)](const fault::FaultEvent& e) {
        if (e.storm < 0 || e.storm >= static_cast<int>(storms.size())) return;
        TenantStorm* s = storms[static_cast<std::size_t>(e.storm)];
        if (s == nullptr) return;
        if (e.kind == fault::FaultKind::StormStart) {
          s->start();
        } else if (e.kind == fault::FaultKind::StormStop) {
          s->stop();
        }
      });
}

}  // namespace rdmamon::workload
