#include "net/qos.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/registry.hpp"

namespace rdmamon::net {

TenantArbiter::TenantArbiter(sim::Simulation& simu, const QosConfig& cfg,
                             double engine_bps, std::string_view ring_name)
    : simu_(simu), cfg_(cfg), engine_bps_(engine_bps) {
  if (telemetry::Registry* reg = telemetry::Registry::of(simu)) {
    fr_ = reg->recorder().ring(ring_name);
  }
}

TenantArbiter::TenantState& TenantArbiter::state_of(TenantId t) {
  auto it = ts_.find(t);
  if (it != ts_.end()) return it->second;
  TenantState st;
  const TenantQosSpec* spec = cfg_.find(t);
  st.weight = spec != nullptr ? spec->weight : cfg_.default_weight;
  if (st.weight <= 0.0) st.weight = cfg_.default_weight;
  st.rate_bps = spec != nullptr ? spec->rate_bps : 0.0;
  st.burst = spec != nullptr ? static_cast<double>(spec->burst_bytes) : 0.0;
  // A rated tenant needs a usable bucket; a zero depth would charge zero
  // tokens per op and void the cap entirely.
  if (st.rate_bps > 0.0 && st.burst <= 0.0) st.burst = 256.0 * 1024.0;
  st.cap = spec != nullptr && spec->queue_cap > 0 ? spec->queue_cap
                                                  : cfg_.default_queue_cap;
  // A fresh tenant starts with a full bucket: the first burst is free,
  // the long-run rate is what the bucket bounds.
  st.tokens = st.burst;
  st.last_refill = simu_.now();
  return ts_.emplace(t, std::move(st)).first->second;
}

void TenantArbiter::refill(TenantState& st, sim::TimePoint now) {
  if (st.rate_bps <= 0.0) return;
  const double dt_s =
      static_cast<double>((now - st.last_refill).ns) * 1e-9;
  st.tokens = std::min(st.burst, st.tokens + dt_s * st.rate_bps);
  st.last_refill = now;
}

bool TenantArbiter::submit(TenantId tenant, std::size_t bytes,
                          std::function<void()> grant) {
  TenantState& st = state_of(tenant);
  ++st.stats.submitted;
  const std::uint64_t seq = seq_++;
  if (st.q.size() >= st.cap) {
    ++st.stats.dropped;
    telemetry::fr_record(fr_, "qos.drop", tenant,
                         static_cast<std::int64_t>(seq),
                         static_cast<double>(bytes));
    return false;
  }
  Op op;
  op.seq = seq;
  op.bytes = bytes;
  // SFQ tagging: the op's virtual start is where the tenant's previous
  // op virtually finished, clamped up to the system virtual time — an
  // idle tenant resumes at "now" and never banks credit.
  op.start_tag = std::max(vtime_, st.vfinish);
  st.vfinish = op.start_tag + static_cast<double>(bytes) / st.weight;
  op.enqueued = simu_.now();
  op.grant = std::move(grant);
  st.q.push_back(std::move(op));
  pump();
  return true;
}

void TenantArbiter::pump() {
  if (busy_) return;
  const sim::TimePoint now = simu_.now();
  TenantState* best = nullptr;
  TenantId best_id = 0;
  sim::TimePoint earliest = sim::kNever;
  bool any_queued = false;
  for (auto& [id, st] : ts_) {
    if (st.q.empty()) continue;
    any_queued = true;
    refill(st, now);
    const Op& head = st.q.front();
    // An op is charged at most one bucket depth: an op larger than the
    // bucket admits on a full bucket and drains it, so its long-run rate
    // is still ~rate_bps instead of being unpassable forever.
    const double charge =
        std::min(static_cast<double>(head.bytes), st.burst);
    if (st.rate_bps > 0.0 && st.tokens < charge) {
      // Token-short: compute when the bucket will cover the head op and
      // keep looking — rate limiting is deliberately non-work-conserving.
      const double need = charge - st.tokens;
      const auto wait_ns = static_cast<std::int64_t>(
          std::ceil(need / st.rate_bps * 1e9));
      const sim::TimePoint eligible{now.ns + std::max<std::int64_t>(wait_ns, 1)};
      if (eligible < earliest) earliest = eligible;
      continue;
    }
    if (best == nullptr ||
        head.start_tag < best->q.front().start_tag ||
        (head.start_tag == best->q.front().start_tag &&
         head.seq < best->q.front().seq)) {
      best = &st;
      best_id = id;
    }
  }
  if (best != nullptr) {
    Op op = std::move(best->q.front());
    best->q.pop_front();
    if (best->rate_bps > 0.0) {
      best->tokens -=
          std::min(static_cast<double>(op.bytes), best->burst);
    }
    vtime_ = std::max(vtime_, op.start_tag);
    ++best->stats.admitted;
    best->stats.admitted_bytes += op.bytes;
    if (now > op.enqueued) ++best->stats.deferred;
    telemetry::fr_record(fr_, "qos.admit", best_id,
                         static_cast<std::int64_t>(op.seq),
                         static_cast<double>(op.bytes));
    // Occupy the tx engine for the op's serialisation; the op's own
    // downstream latency is charged by the NIC as before, so an
    // uncontended post sees zero added delay.
    const auto ser_ns = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(op.bytes) / engine_bps_ * 1e9));
    busy_ = true;
    simu_.after(sim::nsec(ser_ns), [this] {
      busy_ = false;
      pump();
    });
    op.grant();
    return;
  }
  if (any_queued) {
    // Everything queued is token-short: wake when the first head becomes
    // eligible (re-arming only if it moved the deadline earlier).
    if (!timer_armed_ || earliest < timer_at_) {
      timer_.cancel();
      timer_at_ = earliest;
      timer_armed_ = true;
      timer_ = simu_.at(earliest, [this] {
        timer_armed_ = false;
        pump();
      });
    }
  }
}

TenantArbiter::Stats TenantArbiter::stats(TenantId t) const {
  auto it = ts_.find(t);
  if (it == ts_.end()) return Stats{};
  Stats s = it->second.stats;
  s.queue_depth = it->second.q.size();
  return s;
}

std::vector<TenantId> TenantArbiter::tenants() const {
  std::vector<TenantId> out;
  out.reserve(ts_.size());
  for (const auto& [id, st] : ts_) out.push_back(id);
  return out;
}

}  // namespace rdmamon::net
