#include "monitor/inbox.hpp"

#include <algorithm>
#include <cassert>
#include <span>

namespace rdmamon::monitor {

double change_delta(const os::LoadSnapshot& a, const os::LoadSnapshot& b) {
  // A delta of 0.05 here moves the index by at most ~0.05.
  double d = std::abs(a.cpu_load - b.cpu_load);
  d = std::max(d, std::abs(a.mem_load - b.mem_load));
  d = std::max(d, std::abs(a.net_rate - b.net_rate) / kNetCapacityBps);
  d = std::max(d, std::abs(static_cast<double>(a.connections - b.connections)) /
                      kConnCapacity);
  d = std::max(d, std::abs(static_cast<double>(a.nr_running - b.nr_running)) /
                      kRunqCapacity);
  return d;
}

// --- PushInbox ----------------------------------------------------------------

PushInbox::PushInbox(net::Fabric& fabric, os::Node& frontend, int slots)
    : frontend_(&frontend),
      slots_(static_cast<std::size_t>(slots)),
      consumed_(static_cast<std::size_t>(slots), 0),
      last_fresh_(static_cast<std::size_t>(slots),
                  fabric.simu().now()) {
  // One region for all N slots; a WRITE overwrites the addressed slot
  // blindly (raw-memory WRITE semantics — no validation at the target).
  key_ = fabric.nic(frontend.id).register_mr(
      std::as_writable_bytes(std::span(slots_)),
      [this](net::Verb verb, std::span<std::byte>&) {
        if (verb == net::Verb::Write) ++writes_applied_;
      },
      /*remote_writable=*/true);
  if (telemetry::Registry* reg =
          telemetry::Registry::of(fabric.simu())) {
    fr_ = reg->recorder().ring("inbox." + frontend.name());
  }
}

const char* PushInbox::to_string(ScanResult r) {
  switch (r) {
    case ScanResult::Empty: return "empty";
    case ScanResult::Unchanged: return "unchanged";
    case ScanResult::Fresh: return "fresh";
    case ScanResult::Torn: return "torn";
    case ScanResult::Regressed: return "regressed";
  }
  return "?";
}

PushInbox::ScanResult PushInbox::scan(int i, MonitorSample& out,
                                      bool* heartbeat) {
  const auto idx = static_cast<std::size_t>(i);
  const InboxSlot& s = slots_[idx];
  if (s.seq == 0 && s.seq_check == 0) return ScanResult::Empty;
  if (s.seq != s.seq_check) {
    // Seqlock mismatch: the image is half of one write and half of
    // another. Never consume it — and do not advance the consumed
    // sequence, so the completing write is still picked up next scan.
    ++torn_;
    telemetry::fr_record(fr_, "scan.torn", i,
                         static_cast<std::int64_t>(s.seq));
    return ScanResult::Torn;
  }
  if (s.seq < consumed_[idx]) {
    // A write from the past landed after a newer one was consumed
    // (replay/reorder). Consuming it would make the view travel back in
    // time; the consumed watermark makes this impossible by construction.
    ++regressed_;
    telemetry::fr_record(fr_, "scan.regressed", i,
                         static_cast<std::int64_t>(s.seq));
    return ScanResult::Regressed;
  }
  if (s.seq == consumed_[idx]) return ScanResult::Unchanged;
  consumed_[idx] = s.seq;
  const sim::TimePoint now = frontend_->simu().now();
  last_fresh_[idx] = now;
  ++fresh_;
  out = MonitorSample{};
  out.info = s.info;
  out.requested_at = now;  // a scan has no request phase
  out.retrieved_at = now;
  out.ok = true;
  out.error = FetchError::None;
  out.attempts = 1;
  if (heartbeat != nullptr) *heartbeat = s.heartbeat;
  // x = the image's information age at consume (the lineage signal).
  telemetry::fr_record(fr_, s.heartbeat ? "scan.heartbeat" : "scan.fresh", i,
                       static_cast<std::int64_t>(s.seq),
                       static_cast<double>((now - s.info.computed_at).ns));
  return ScanResult::Fresh;
}

// --- PushPublisher ------------------------------------------------------------

PushPublisher::PushPublisher(net::Fabric& fabric, os::Node& backend)
    : fabric_(&fabric), backend_(&backend) {}

void PushPublisher::target(int frontend_node, net::MrKey inbox_key,
                           int slot) {
  if (frontend_node == target_node_ && inbox_key.key == inbox_key_.key &&
      slot == slot_) {
    return;  // same target: keep the baseline, no gratuitous re-push
  }
  target_node_ = frontend_node;
  inbox_key_ = inbox_key;
  slot_ = slot;
  // A new owner starts from an empty slot: drop the baseline so the next
  // decision pushes unconditionally instead of waiting for a change or
  // the heartbeat. A WRITE still in flight to the old owner completes
  // into the same CQ and is reaped normally.
  has_baseline_ = false;
  if (!qp_ || qp_->remote_node() != frontend_node) {
    qp_.emplace(fabric_->nic(backend_->id), frontend_node, cq_);
  }
}

void PushPublisher::start() {
  if (thread_ != nullptr) return;
  // Kernel thread: the reporter models an in-kernel module (like the
  // registered-MR side of the pull schemes), so it is excluded from the
  // user nr_running it reports — otherwise every wakeup of the reporter
  // flips the run-queue signal by one and the monitor mostly measures
  // itself. Its collection time still shows up in cpu_load as kernel
  // busy, which is the honest part of the overhead.
  thread_ = backend_->spawn(
      "push-pub", [this](os::SimThread& t) { return body(t); },
      {.kernel_thread = true});
}

void PushPublisher::stop() {
  if (thread_ == nullptr) return;
  backend_->sched().kill(thread_);
  thread_ = nullptr;
}

os::Program PushPublisher::body(os::SimThread& self) {
  sim::Simulation& simu = backend_->simu();
  for (;;) {
    co_await os::SleepFor{kCheckPeriod};
    // Reap completions first (free, like any CQ poll). An error clears
    // the change baseline: whatever we thought the front end knows, it
    // may not, so the next decision pushes unconditionally — the push
    // scheme's analogue of the pull path's bounded retry.
    while (!cq_.empty()) {
      net::Completion c = cq_.pop();
      in_flight_ = false;
      if (c.status != net::WcStatus::Success) {
        ++errors_;
        if (c.status == net::WcStatus::InvalidKey) ++invalid_key_;
        has_baseline_ = false;
      }
    }
    if (target_node_ < 0 || in_flight_ || paused_) continue;
    // Collecting the snapshot walks the same task lists the /proc read
    // does; running in-kernel skips the trap but not the walk, so the
    // full read cost is charged (as kernel time).
    co_await os::ComputeKernel{backend_->procfs().read_cost()};
    const os::LoadSnapshot snap = backend_->procfs().snapshot();
    const sim::TimePoint now = simu.now();
    const bool heartbeat_due =
        !has_pushed_ || now - last_push_ >= kHeartbeat;
    const bool changed =
        !has_baseline_ ||
        change_delta(snap, baseline_) >= kChangeThreshold;
    const bool min_ok =
        !has_pushed_ || now - last_push_ >= kMinInterval;
    const bool change_push = changed && min_ok;
    if (!change_push && !heartbeat_due) continue;
    ++seq_;
    image_.seq = seq_;
    image_.info = snap;
    image_.pushed_at = now;
    image_.heartbeat = !change_push;
    image_.seq_check = seq_;
    co_await os::Compute{net::kDoorbellCost};
    qp_->post({.verb = net::Verb::Write,
               .rkey = inbox_key_,
               .len = PushInbox::kSlotBytes,
               .wr_id = cq_.alloc_wr_id(),
               .offset = static_cast<std::size_t>(slot_) * sizeof(InboxSlot),
               .payload = net::bytes_of(image_)});
    in_flight_ = true;
    has_pushed_ = true;
    last_push_ = now;
    baseline_ = snap;
    has_baseline_ = true;
    ++pushes_;
    if (image_.heartbeat) ++heartbeats_;
  }
  (void)self;
}

}  // namespace rdmamon::monitor
