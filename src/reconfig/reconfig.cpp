#include "reconfig/reconfig.hpp"

#include <cassert>
#include <limits>

#include "lb/balancer.hpp"

namespace rdmamon::reconfig {

namespace {
/// Reassign a node when |loadA - loadB| reaches this.
constexpr double kImbalanceThreshold = 0.25;
}  // namespace

RoleRegion::RoleRegion(net::Fabric& fabric, os::Node& node, Role initial)
    : node_(&node), role_(initial), word_(static_cast<int>(initial)) {
  // A WRITE lands in the role word; the DMA hook then applies it.
  key_ = fabric.nic(node.id).register_mr(
      net::bytes_of(word_),
      [this](net::Verb verb, std::span<std::byte>&) {
        const Role next = static_cast<Role>(word_);
        if (verb != net::Verb::Write || next == role_) return;
        role_ = next;
        if (on_change_) on_change_(role_);
      },
      /*remote_writable=*/true);
}

ReconfigManager::ReconfigManager(net::Fabric& fabric, os::Node& frontend,
                                 ReconfigConfig cfg)
    : fabric_(&fabric), frontend_(&frontend), cfg_(cfg) {}

void ReconfigManager::add_backend(RoleRegion& region) {
  regions_.push_back(&region);
  channels_.push_back(std::make_unique<monitor::MonitorChannel>(
      *fabric_, *frontend_, region.node(), cfg_.monitor));
  samples_.emplace_back();
  fail_streak_.push_back(0);
}

bool ReconfigManager::believed_dead(int i) const {
  return fail_streak_[static_cast<std::size_t>(i)] >= lb::kDeadAfter;
}

int ReconfigManager::dead_nodes() const {
  int n = 0;
  for (std::size_t i = 0; i < fail_streak_.size(); ++i) {
    if (believed_dead(static_cast<int>(i))) ++n;
  }
  return n;
}

void ReconfigManager::start() {
  for (auto& ch : channels_) scatter_.add(ch->frontend());
  frontend_->spawn("reconfig-mgr",
                   [this](os::SimThread& t) { return manager_body(t); });
}

int ReconfigManager::nodes_in(Role r) const {
  int n = 0;
  for (const auto* reg : regions_) {
    if (reg->role() == r) ++n;
  }
  return n;
}

double ReconfigManager::pool_load(Role r) const {
  double sum = 0;
  int n = 0;
  lb::WeightConfig w;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i]->role() != r) continue;
    if (!samples_[i].ok) continue;
    sum += lb::load_index(samples_[i].info, w);
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

os::Program ReconfigManager::manager_body(os::SimThread& self) {
  sim::Simulation& simu = self.node().simu();
  for (;;) {
    // Refresh every back end's load through the configured scheme — one
    // scatter round, so a dead back end costs a fetch_timeout once per
    // round instead of stalling the sweep. A back end failing kDeadAfter
    // fetches in a row loses its vote: its stale load no longer weighs on
    // pool decisions and it cannot be picked for a role flip until it
    // answers again.
    co_await scatter_.round_all(self, round_buf_);
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      const monitor::MonitorSample& s = round_buf_[i];
      if (s.ok) {
        samples_[i] = s;
        fail_streak_[i] = 0;
      } else {
        ++fetch_failures_;
        ++fail_streak_[i];
        if (fail_streak_[i] >= lb::kDeadAfter) samples_[i].ok = false;
      }
    }

    const double load_a = pool_load(Role::ServiceA);
    const double load_b = pool_load(Role::ServiceB);
    const double gap = load_a - load_b;
    const bool cooled =
        (simu.now() - last_reconfig_) >= cfg_.cooldown;
    if (cooled && std::abs(gap) >= kImbalanceThreshold) {
      const Role cool = gap > 0 ? Role::ServiceB : Role::ServiceA;
      const Role hot = gap > 0 ? Role::ServiceA : Role::ServiceB;
      if (nodes_in(cool) > cfg_.min_nodes_per_service) {
        // Move the least-loaded node of the cool pool to the hot pool.
        lb::WeightConfig w;
        int pick = -1;
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < regions_.size(); ++i) {
          if (regions_[i]->role() != cool || !samples_[i].ok) continue;
          const double idx = lb::load_index(samples_[i].info, w);
          if (idx < best) {
            best = idx;
            pick = static_cast<int>(i);
          }
        }
        if (pick >= 0) {
          // One-sided role flip: an RDMA WRITE into the back end's
          // registered role word. No back-end thread is involved.
          net::QueuePair qp(
              fabric_->nic(frontend_->id),
              regions_[static_cast<std::size_t>(pick)]->node().id, cq_);
          net::Completion c;
          const int word = static_cast<int>(hot);
          co_await net::rdma_sync(
              self, qp,
              {.verb = net::Verb::Write,
               .rkey = regions_[static_cast<std::size_t>(pick)]->mr_key(),
               .len = sizeof(int),
               .payload = net::bytes_of(word)},
              c);
          if (c.status == net::WcStatus::Success) {
            ++reconfigs_;
            last_reconfig_ = simu.now();
          }
        }
      }
    }
    co_await os::SleepFor{cfg_.check_period};
  }
}

}  // namespace rdmamon::reconfig
