#include "os/node.hpp"

#include <stdexcept>

namespace rdmamon::os {

namespace {

NodeConfig checked(NodeConfig cfg) {
  if (cfg.cpus > LoadSnapshot::kMaxCpus) {
    throw std::invalid_argument("os::Node " + cfg.name + ": " +
                                std::to_string(cfg.cpus) +
                                " CPUs exceed LoadSnapshot::kMaxCpus");
  }
  return cfg;
}

}  // namespace

Node::Node(sim::Simulation& simu, NodeConfig cfg)
    : simu_(simu), cfg_(checked(std::move(cfg))),
      stats_(cfg_.cpus, cfg_.load_window, cfg_.memory_bytes),
      procfs_(*this) {
  sched_ = std::make_unique<Scheduler>(simu_, *this, stats_, cfg_);
  irq_ = std::make_unique<IrqController>(*sched_, cfg_);
  irq_->start_ksoftirqd();
  if (cfg_.timer_irq) schedule_timer_tick();
}

void Node::schedule_timer_tick() {
  simu_.after(cfg_.tick(), [this] {
    irq_->raise(0, IrqType::Timer, nullptr);
    schedule_timer_tick();
  });
}

}  // namespace rdmamon::os
