#include "fault/fault.hpp"

#include <algorithm>

#include "telemetry/registry.hpp"
#include "util/format.hpp"

namespace rdmamon::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::NodeCrash: return "crash";
    case FaultKind::NodeRecover: return "recover";
    case FaultKind::NodeFreeze: return "freeze";
    case FaultKind::NodeUnfreeze: return "unfreeze";
    case FaultKind::LinkDegrade: return "link-degrade";
    case FaultKind::LinkRestore: return "link-restore";
    case FaultKind::StormStart: return "storm-start";
    case FaultKind::StormStop: return "storm-stop";
  }
  return "?";
}

FaultPlan& FaultPlan::add(FaultEvent e) {
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::crash(int node, sim::TimePoint at) {
  return add({at, FaultKind::NodeCrash, node, {}, 0.0});
}

FaultPlan& FaultPlan::recover(int node, sim::TimePoint at) {
  return add({at, FaultKind::NodeRecover, node, {}, 0.0});
}

FaultPlan& FaultPlan::crash_for(int node, sim::TimePoint at,
                                sim::Duration down_for) {
  return crash(node, at).recover(node, at + down_for);
}

FaultPlan& FaultPlan::freeze(int node, sim::TimePoint at) {
  return add({at, FaultKind::NodeFreeze, node, {}, 0.0});
}

FaultPlan& FaultPlan::unfreeze(int node, sim::TimePoint at) {
  return add({at, FaultKind::NodeUnfreeze, node, {}, 0.0});
}

FaultPlan& FaultPlan::freeze_for(int node, sim::TimePoint at,
                                 sim::Duration hung_for) {
  return freeze(node, at).unfreeze(node, at + hung_for);
}

FaultPlan& FaultPlan::degrade_link(int node, sim::TimePoint at,
                                   sim::Duration extra_latency, double loss) {
  return add({at, FaultKind::LinkDegrade, node, extra_latency, loss});
}

FaultPlan& FaultPlan::restore_link(int node, sim::TimePoint at) {
  return add({at, FaultKind::LinkRestore, node, {}, 0.0});
}

FaultPlan& FaultPlan::degrade_link_for(int node, sim::TimePoint at,
                                       sim::Duration window,
                                       sim::Duration extra_latency,
                                       double loss) {
  return degrade_link(node, at, extra_latency, loss)
      .restore_link(node, at + window);
}

FaultPlan& FaultPlan::storm_start(int storm, sim::TimePoint at) {
  FaultEvent e{at, FaultKind::StormStart, -1, {}, 0.0};
  e.storm = storm;
  return add(e);
}

FaultPlan& FaultPlan::storm_stop(int storm, sim::TimePoint at) {
  FaultEvent e{at, FaultKind::StormStop, -1, {}, 0.0};
  e.storm = storm;
  return add(e);
}

FaultPlan& FaultPlan::storm_for(int storm, sim::TimePoint at,
                                sim::Duration window) {
  return storm_start(storm, at).storm_stop(storm, at + window);
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const FaultEvent& e : events_) {
    out += sim::to_string(e.at);
    if (e.kind == FaultKind::StormStart || e.kind == FaultKind::StormStop) {
      out += " storm";
      out += std::to_string(e.storm);
    } else {
      out += " node";
      out += std::to_string(e.node);
    }
    out += ' ';
    out += to_string(e.kind);
    if (e.kind == FaultKind::LinkDegrade) {
      out += " +";
      out += sim::to_string(e.extra_latency);
      out += " loss=";
      out += util::format_double(e.loss, 3);
    }
    out += '\n';
  }
  return out;
}

FaultPlan FaultPlan::random(sim::Rng& rng, int num_nodes,
                            sim::Duration horizon, int pairs) {
  FaultPlan plan;
  for (int p = 0; p < pairs; ++p) {
    const int node =
        static_cast<int>(rng.uniform_int(0, std::max(0, num_nodes - 1)));
    const auto start = sim::nsec(static_cast<std::int64_t>(
        rng.uniform(0.0, 0.7 * static_cast<double>(horizon.ns))));
    const auto max_window = 0.95 * static_cast<double>(horizon.ns) -
                            static_cast<double>(start.ns);
    const auto window = sim::nsec(static_cast<std::int64_t>(rng.uniform(
        0.05 * static_cast<double>(horizon.ns), max_window)));
    const sim::TimePoint at{start.ns};
    switch (rng.uniform_int(0, 2)) {
      case 0:
        plan.crash_for(node, at, window);
        break;
      case 1:
        plan.freeze_for(node, at, window);
        break;
      default: {
        const auto extra = sim::usec(
            static_cast<std::int64_t>(rng.uniform(50.0, 2000.0)));
        const double loss = rng.uniform(0.0, 0.5);
        plan.degrade_link_for(node, at, window, extra, loss);
        break;
      }
    }
  }
  return plan;
}

void FaultInjector::apply(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::NodeCrash:
      fabric_->inject_crash(e.node);
      break;
    case FaultKind::NodeRecover:
      fabric_->inject_recover(e.node);
      break;
    case FaultKind::NodeFreeze:
      fabric_->inject_freeze(e.node);
      break;
    case FaultKind::NodeUnfreeze:
      fabric_->inject_unfreeze(e.node);
      break;
    case FaultKind::LinkDegrade:
      fabric_->inject_link_fault(e.node, e.extra_latency, e.loss);
      break;
    case FaultKind::LinkRestore:
      fabric_->clear_link_fault(e.node);
      break;
    case FaultKind::StormStart:
    case FaultKind::StormStop:
      // The fabric is untouched: the damage is real tenant traffic,
      // generated by whatever the storm hook starts/stops.
      if (storm_hook_) storm_hook_(e);
      break;
  }
  ++injected_;
  telemetry::Registry* reg = telemetry::Registry::of(fabric_->simu());
  if (reg != nullptr) {
    const bool is_storm =
        e.kind == FaultKind::StormStart || e.kind == FaultKind::StormStop;
    reg->counter("fault.injected", telemetry::Labels{{"kind", to_string(e.kind)}})
        .inc();
    // Flight-record the fault (so fault windows line up with the
    // fetch/dispatch events around them), and on a crash dump a
    // post-mortem: the merged rings show exactly what the monitoring
    // plane was doing in the lead-up to the kill.
    reg->recorder()
        .ring("fault", 128)
        ->record(to_string(e.kind), is_storm ? e.storm : e.node,
                 static_cast<std::int64_t>(e.kind));
    if (e.kind == FaultKind::NodeCrash) {
      reg->recorder().postmortem("crash_node" + std::to_string(e.node));
    }
  }
}

void FaultInjector::arm(const FaultPlan& plan) {
  sim::Simulation& simu = fabric_->simu();
  for (const FaultEvent& e : plan.events()) {
    const sim::TimePoint when = std::max(e.at, simu.now());
    simu.at(when, [this, e] { apply(e); });
  }
}

}  // namespace rdmamon::fault
