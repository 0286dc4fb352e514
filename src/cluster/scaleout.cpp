#include "cluster/scaleout.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "net/nic.hpp"

namespace rdmamon::cluster {

namespace {
/// Consecutive failed/stale view reads before a peer is evicted.
constexpr int kPeerDeadAfter = 3;
}  // namespace

FrontendPlane::FrontendPlane(ScaleOutPlane& plane, os::Node& node, int id,
                             lb::WeightConfig weights)
    : plane_(&plane), node_(&node), id_(id), lb_(weights) {}

void FrontendPlane::leave(const std::string& reason) {
  wants_membership_ = false;
  plane_->membership().leave(id_, reason);
}

void FrontendPlane::rejoin(const std::string& reason) {
  wants_membership_ = true;
  plane_->membership().join(id_, reason);
}

void FrontendPlane::stall() {
  lb_.stall();
  if (gossip_thread_ != nullptr) node_->sched().kill(gossip_thread_);
  gossip_thread_ = nullptr;
}

int FrontendPlane::owned_count() const {
  int n = 0;
  for (int b = 0; b < plane_->backend_count(); ++b) {
    if (plane_->membership().owner_of(b) == id_) ++n;
  }
  return n;
}

sim::Duration FrontendPlane::max_peer_view_age() const {
  const sim::TimePoint now = node_->simu().now();
  sim::Duration worst{0};
  for (int b = 0; b < plane_->backend_count(); ++b) {
    if (plane_->membership().owner_of(b) == id_) continue;
    worst = std::max(worst, now - lb_.view(b).evidence_at);
  }
  return worst;
}

std::vector<std::uint64_t> FrontendPlane::poll_counts() const {
  std::vector<std::uint64_t> polls;
  for (int b = 0; b < lb_.backends(); ++b) {
    polls.push_back(lb_.view(b).refreshes);
  }
  return polls;
}

ShardViewHeader FrontendPlane::view() const {
  return {id_, static_cast<std::uint32_t>(owned_count()), round_,
          plane_->membership().epoch(), published_at_};
}

std::span<std::byte> FrontendPlane::build_view() {
  ShardViewHeader h{id_, 0, round_, plane_->membership().epoch(),
                    published_at_};
  std::size_t at = sizeof(ShardViewHeader);
  for (int b = 0; b < plane_->backend_count(); ++b) {
    if (plane_->membership().owner_of(b) != id_) continue;
    const ShardViewEntry e = lb::peer_record(b, lb_.view(b));
    std::memcpy(view_image_.data() + at, &e, sizeof(e));
    at += sizeof(e);
    ++h.count;
  }
  std::memcpy(view_image_.data(), &h, sizeof(h));
  return std::span(view_image_).first(at);
}

void FrontendPlane::wire(sim::Duration granularity) {
  const int n = plane_->backend_count();
  const sim::TimePoint now = node_->simu().now();
  last_strike_.assign(static_cast<std::size_t>(n), now);
  owned_by_.assign(static_cast<std::size_t>(n), -1);
  published_at_ = now;

  // One channel per back end against the SHARED BackendMonitor: the
  // back end runs one daemon set however many front ends watch it.
  // With verbs.shared_contexts > 0 the channels multiplex over a small
  // DCT-style context pool (round-robin) instead of holding N dedicated
  // NIC contexts each — the footprint a bounded QPC cache can hold.
  const std::vector<std::shared_ptr<net::QpContext>> pool =
      net::make_context_pool(plane_->fabric().nic(node_->id),
                             plane_->config().verbs);
  for (int b = 0; b < n; ++b) {
    std::shared_ptr<net::QpContext> ctx =
        pool.empty() ? nullptr : pool[static_cast<std::size_t>(b) % pool.size()];
    lb_.add_backend(std::make_unique<monitor::MonitorChannel>(
        plane_->fabric(), *node_, plane_->backend_monitor(b),
        std::move(ctx)));
  }
  lb_.set_verbs_tuning(plane_->config().verbs);
  lb_.set_poll_filter([this](std::size_t b) {
    return plane_->membership().owner_of(static_cast<int>(b)) == id_;
  });
  if (plane_->push_enabled()) {
    // One inbox slot per back end, addressed by back-end index — every
    // front end registers the full N slots so a shard can migrate to it
    // without re-registration, only publisher retargeting.
    inbox_ = std::make_unique<monitor::PushInbox>(plane_->fabric(), *node_, n);
    lb_.enable_push(*inbox_, plane_->config().push);
  }
  lb_.on_round([this](const std::vector<std::size_t>&) { on_round(); });

  // The published view: a registered region whose DMA hook writes the
  // view from the balancer's records at the DMA service instant. No
  // publisher thread and no second copy: a host whose monitoring threads
  // stall stops moving published_at and the records' evidence while its
  // NIC keeps serving, which is exactly the stale-view signal peers key
  // on.
  view_image_.resize(view_read_bytes(n));
  view_mr_ = plane_->fabric().nic(node_->id).register_mr(
      view_image_, [this](net::Verb, std::span<std::byte>& image) {
        image = build_view();
      });

  // One QP per peer front end, completing into our own gossip CQ.
  peer_qps_.resize(static_cast<std::size_t>(plane_->frontend_count()));
  peer_fail_.assign(static_cast<std::size_t>(plane_->frontend_count()), 0);
  for (int p = 0; p < plane_->frontend_count(); ++p) {
    if (p == id_) continue;
    peer_qps_[static_cast<std::size_t>(p)] = std::make_unique<net::QueuePair>(
        plane_->fabric().nic(node_->id), plane_->frontend(p).node().id,
        gossip_cq_);
  }

  // Baseline ownership snapshot (membership was bootstrapped already).
  for (int b = 0; b < n; ++b) {
    owned_by_[static_cast<std::size_t>(b)] = plane_->membership().owner_of(b);
  }

  reg_ = telemetry::Registry::of(node_->simu());
  if (reg_ != nullptr) {
    const telemetry::Labels by_fe{{"frontend", node_->name()}};
    auto read_counter = [&](const char* result) -> telemetry::Counter& {
      telemetry::Labels l = by_fe;
      l.add("result", result);
      return reg_->counter("cluster.gossip.reads", l);
    };
    m_gossip_ok_ = &read_counter("ok");
    m_gossip_fail_ = &read_counter("failed");
    m_stale_ = &reg_->counter("cluster.stale_marks", by_fe);
    m_evict_ = &reg_->counter("cluster.evictions", by_fe);
    collector_.bind(node_->simu(), [this](telemetry::Registry& reg) {
      const telemetry::Labels l{{"frontend", node_->name()}};
      reg.gauge("cluster.ring.owned", l)
          .set(static_cast<double>(owned_count()));
      reg.gauge("cluster.peer_view.age_ns", l)
          .set(static_cast<double>(max_peer_view_age().ns));
      reg.gauge("cluster.membership.epoch", l)
          .set(static_cast<double>(plane_->membership().epoch()));
    });
    fr_ = reg_->recorder().ring("gossip." + node_->name(), 256);
  }

  lb_.start(*node_, granularity);
  gossip_thread_ = node_->spawn(
      "gossip", [this](os::SimThread& t) { return gossip_body(t); });
}

void FrontendPlane::on_round() {
  ++round_;
  published_at_ = node_->simu().now();
}

void FrontendPlane::on_membership_change() {
  for (int b = 0; b < plane_->backend_count(); ++b) {
    const std::size_t i = static_cast<std::size_t>(b);
    const int owner = plane_->membership().owner_of(b);
    if (owner == id_ && owned_by_[i] != id_) {
      // Shard takeover: start with a clean failure detector so the
      // dead-probe cadence cannot throttle the first takeover polls,
      // and restart the staleness clock (we are about to poll it).
      lb_.reset_health(i);
      last_strike_[i] = node_->simu().now();
      ++takeovers_;
    }
    owned_by_[i] = owner;
  }
}

bool FrontendPlane::may_evict() const {
  // Evicting a peer is trustworthy only while our own shard refreshes are
  // landing: if nothing is reachable, WE are the isolated one. The
  // evidence — the latest successful local refresh, a poll or a consumed
  // push, of a back end we own — must be fresher than the gossip
  // detection window ((kPeerDeadAfter - 1) periods): a front end whose
  // own network just died must lose eviction rights BEFORE its failure
  // streak against an innocent peer can mature, else two partitioned
  // front ends at M=2 evict each other (split-brain). An empty shard
  // (possible but vanishingly rare with 64 vnodes) has no local signal,
  // so it is allowed to report — someone must, and a partitioned
  // empty-shard front end can do no harm to polling anyway.
  bool owns_any = false;
  sim::TimePoint last_local_ok{};
  for (int b = 0; b < plane_->backend_count(); ++b) {
    if (plane_->membership().owner_of(b) != id_) continue;
    owns_any = true;
    const lb::BackendView& v = lb_.view(b);
    if (v.source != lb::ViewSource::Gossip) {
      last_local_ok = std::max(last_local_ok, v.sample.retrieved_at);
    }
  }
  if (!owns_any) return true;
  const ScaleOutConfig& cfg = plane_->config();
  const std::int64_t guard =
      std::min((kPeerDeadAfter - 1) * cfg.gossip_period.ns,
               cfg.staleness_bound.ns);
  const sim::Duration since = node_->simu().now() - last_local_ok;
  return since.ns < guard;
}

ShardViewHeader FrontendPlane::process_view(const sim::ByteBlock& image,
                                            std::size_t len) {
  const reconfig::FrontendMembership& mem = plane_->membership();
  const auto h = image.as<ShardViewHeader>();
  // Entries past the READ's length never crossed the wire: a shard that
  // grew between post and DMA is cut there, and the rest arrives with
  // the next period's READ.
  const std::size_t n = std::min<std::size_t>(
      h.count, (len - sizeof(ShardViewHeader)) / sizeof(ShardViewEntry));
  for (std::size_t i = 0; i < n; ++i) {
    const auto e = image.as<ShardViewEntry>(sizeof(ShardViewHeader) +
                                            i * sizeof(ShardViewEntry));
    // Only a back end's current owner vouches for it (membership is
    // shared), and only evidence newer than ours is news.
    if (mem.owner_of(e.backend) != h.frontend) continue;
    if (e.evidence_at <= lb_.view(e.backend).evidence_at) continue;
    lb_.ingest_peer(e);
  }
  return h;
}

os::Program FrontendPlane::gossip_body(os::SimThread& self) {
  const ScaleOutConfig& cfg = plane_->config();
  sim::Simulation& simu = node_->simu();
  for (;;) {
    co_await os::SleepFor{cfg.gossip_period};
    reconfig::FrontendMembership& mem = plane_->membership();
    // Snapshot: eviction below mutates the member list mid-loop. The
    // copy reuses gossip_members_'s capacity.
    gossip_members_ = mem.ring().members();
    for (int peer : gossip_members_) {
      if (peer == id_ || !mem.is_member(peer)) continue;
      FrontendPlane& fp = plane_->frontend(peer);
      net::QueuePair& qp = *peer_qps_[static_cast<std::size_t>(peer)];
      // Sized to the peer's shard as the shared ring has it now.
      const std::size_t len = view_read_bytes(fp.owned_count());
      gossip_bytes_ += net::rdma_footprint(net::Verb::Read, len);
      net::Completion c;
      bool timed_out = false;
      co_await net::rdma_sync(self, qp,
                              {.rkey = fp.view_mr_key(),
                               .len = len,
                               .wr_id = gossip_cq_.alloc_wr_id()},
                              c, simu.now() + cfg.read_timeout, &timed_out);
      const bool read_ok =
          !timed_out && c.status == net::WcStatus::Success;
      bool fresh = false;
      if (read_ok) {
        ++gossip_ok_;
        telemetry::add(m_gossip_ok_);
        const ShardViewHeader v = process_view(c.data, len);
        // A crashed host fails the READ outright; a host whose poller
        // stalled keeps DMA-serving a view whose published_at no
        // longer advances.
        fresh = (simu.now() - v.published_at).ns <= cfg.staleness_bound.ns;
        if (wants_membership_ && !mem.is_member(id_)) {
          // We were evicted (crash, freeze, or partition) but can read
          // members again: rejoin and take our shard back.
          ++rejoins_;
          mem.join(id_, "recovered");
          telemetry::fr_record(fr_, "rejoin", id_);
        }
      } else {
        ++gossip_fail_;
        telemetry::add(m_gossip_fail_);
      }
      std::size_t pi = static_cast<std::size_t>(peer);
      peer_fail_[pi] = fresh ? 0 : peer_fail_[pi] + 1;
      if (peer_fail_[pi] >= kPeerDeadAfter && may_evict() &&
          mem.is_member(id_)) {
        peer_fail_[pi] = 0;
        ++evictions_;
        telemetry::add(m_evict_);
        telemetry::fr_record(fr_, "evict", peer, read_ok ? 1 : 0);
        mem.leave(peer, read_ok ? "stale view" : "unreachable");
      }
    }
    // Staleness sweep over foreign shards: a back end nobody has shown
    // us recently takes one strike per bound elapsed — the "no back end
    // unmonitored past the bound" guarantee's enforcement point.
    const sim::TimePoint now = simu.now();
    for (std::size_t i = 0; i < last_strike_.size(); ++i) {
      const int b = static_cast<int>(i);
      if (mem.owner_of(b) == id_) continue;
      const sim::TimePoint basis =
          std::max(last_strike_[i], lb_.view(b).evidence_at);
      if ((now - basis).ns > cfg.staleness_bound.ns) {
        last_strike_[i] = now;
        ++stale_marks_;
        telemetry::add(m_stale_);
        telemetry::fr_record(fr_, "stale-mark", static_cast<std::int64_t>(i));
        lb_.note_stale(i);
      }
    }
  }
}

ScaleOutPlane::ScaleOutPlane(net::Fabric& fabric, ScaleOutConfig cfg,
                             monitor::MonitorConfig mcfg)
    : fabric_(&fabric), cfg_(cfg), mcfg_(mcfg), membership_(cfg.ring) {}

ScaleOutPlane::~ScaleOutPlane() = default;

int ScaleOutPlane::add_backend(os::Node& node) {
  assert(!started_ && "add_backend before start()");
  backend_monitors_.push_back(
      std::make_unique<monitor::BackendMonitor>(*fabric_, node, mcfg_));
  return static_cast<int>(backend_monitors_.size()) - 1;
}

FrontendPlane& ScaleOutPlane::add_frontend(os::Node& node,
                                           lb::WeightConfig weights) {
  assert(!started_ && "add_frontend before start()");
  const int id = static_cast<int>(frontends_.size());
  frontends_.push_back(
      std::make_unique<FrontendPlane>(*this, node, id, weights));
  return *frontends_.back();
}

void ScaleOutPlane::start(sim::Duration granularity) {
  assert(!started_ && "start() is one-shot");
  started_ = true;
  // Bootstrap joins happen before the change subscription: initial
  // membership is setup, not churn.
  for (auto& fp : frontends_) membership_.join(fp->id(), "bootstrap");
  membership_.on_change([this] {
    for (auto& fp : frontends_) fp->on_membership_change();
    // Publishers chase ring ownership: a shard's new owner starts
    // receiving its back ends' pushes from their next trigger on.
    retarget_publishers();
  });
  for (auto& fp : frontends_) fp->wire(granularity);
  if (push_enabled()) {
    for (auto& bm : backend_monitors_) {
      publishers_.push_back(
          std::make_unique<monitor::PushPublisher>(*fabric_, bm->node()));
    }
    retarget_publishers();
    for (auto& p : publishers_) p->start();
  }
}

void ScaleOutPlane::retarget_publishers() {
  for (std::size_t b = 0; b < publishers_.size(); ++b) {
    const int owner = membership_.owner_of(static_cast<int>(b));
    if (owner < 0) continue;  // empty ring: publishers keep the old aim
    publishers_[b]->target(*frontend(owner).inbox_, static_cast<int>(b));
  }
}

}  // namespace rdmamon::cluster
