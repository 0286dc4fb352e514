#include "telemetry/slo.hpp"

#include <algorithm>

#include "sim/fifo.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::telemetry {

const char* to_string(AlarmState s) {
  switch (s) {
    case AlarmState::Ok: return "ok";
    case AlarmState::BreachWarn: return "breach-warn";
    case AlarmState::Breach: return "breach";
  }
  return "?";
}

/// Live accounting for one SLO: the windowed observations plus the
/// current alarm state.
struct SloEngine::Stream {
  struct Obs {
    sim::TimePoint at;
    bool violating;
  };
  SloSpec spec;
  int index = 0;  ///< registration order (flight-event tag)
  /// The window, oldest first; once it has held a full window it never
  /// allocates again.
  sim::Fifo<Obs> obs;
  std::size_t violations = 0;
  double consumed = 0.0;
  AlarmState state = AlarmState::Ok;
  sim::TimePoint since{};
  std::uint64_t edges = 0;
  Counter* edge_counter = nullptr;    ///< "slo.edges"{slo=...}
  Counter* breach_counter = nullptr;  ///< "slo.breach"{slo=...}
};

SloEngine::SloEngine() = default;

SloEngine::~SloEngine() {
  timer_armed_ = false;
}

void SloEngine::install(Registry& reg) {
  reg_ = &reg;
  fr_ = reg.recorder().ring("slo", 256);
  reg.set_slo(this);
}

sim::TimePoint SloEngine::now() const {
  return reg_ != nullptr ? reg_->now() : sim::TimePoint{};
}

SloEngine::Stream* SloEngine::add(SloSpec spec) {
  auto s = std::make_unique<Stream>();
  s->spec = std::move(spec);
  s->index = static_cast<int>(streams_.size());
  s->since = now();
  streams_.push_back(std::move(s));
  return streams_.back().get();
}

SloEngine::Stream* SloEngine::find(std::string_view name) {
  for (auto& s : streams_) {
    if (s->spec.name == name) return s.get();
  }
  return nullptr;
}

const SloSpec& SloEngine::spec(const Stream* s) const { return s->spec; }

void SloEngine::observe(Stream* s, double value, sim::TimePoint at) {
  if (s == nullptr) return;
  const bool violating = value > s->spec.target;
  s->obs.push_back({at, violating});
  if (violating) ++s->violations;
  slide(*s, at);
}

std::uint64_t SloEngine::add_probe(Stream* s, std::function<double()> fn) {
  const std::uint64_t id = next_probe_id_++;
  probes_.push_back({id, s, std::move(fn)});
  return id;
}

void SloEngine::remove_probe(std::uint64_t id) {
  probes_.erase(std::remove_if(probes_.begin(), probes_.end(),
                               [id](const Probe& p) { return p.id == id; }),
                probes_.end());
}

void SloEngine::slide(Stream& s, sim::TimePoint at) {
  while (!s.obs.empty() && at.ns - s.obs.front().at.ns > s.spec.window.ns) {
    if (s.obs.front().violating) --s.violations;
    s.obs.pop_front();
  }
}

void SloEngine::transition(Stream& s, sim::TimePoint at) {
  slide(s, at);
  const std::size_t n = s.obs.size();
  const double budget = s.spec.error_budget > 0.0 ? s.spec.error_budget : 1.0;
  s.consumed =
      n == 0 ? 0.0
             : (static_cast<double>(s.violations) / static_cast<double>(n)) /
                   budget;
  if (n < s.spec.min_count) return;  // not enough evidence to change state

  AlarmState next = AlarmState::Ok;
  if (s.consumed >= 1.0) {
    next = AlarmState::Breach;
  } else if (s.consumed >= s.spec.warn_fraction) {
    next = AlarmState::BreachWarn;
  }
  if (next == s.state) return;

  const AlarmRecord rec{at, s.spec.name, s.state, next, s.consumed};
  s.state = next;
  s.since = at;
  ++s.edges;
  log_.push_back(rec);

  if (reg_ != nullptr) {
    if (s.edge_counter == nullptr) {
      s.edge_counter = &reg_->counter("slo.edges", {{"slo", s.spec.name}});
      s.breach_counter = &reg_->counter("slo.breach", {{"slo", s.spec.name}});
    }
    s.edge_counter->inc();
    if (next == AlarmState::Breach) s.breach_counter->inc();
  }
  fr_record_at(fr_, at, "alarm", s.index, static_cast<std::int64_t>(next),
               s.consumed);
  for (auto& fn : edge_cbs_) fn(rec);
  if (next == AlarmState::Breach && reg_ != nullptr) {
    // The post-mortem is the alarm's payload: dump history at the edge,
    // while the ring still holds the lead-up.
    reg_->recorder().postmortem("slo_" + s.spec.name);
  }
}

void SloEngine::evaluate() { evaluate(now()); }

void SloEngine::evaluate(sim::TimePoint at) {
  for (Probe& p : probes_) {
    if (p.stream != nullptr) observe(p.stream, p.fn(), at);
  }
  for (auto& s : streams_) transition(*s, at);
}

void SloEngine::arm_timer(sim::Simulation& simu, sim::Duration period) {
  timer_armed_ = true;
  tick(simu, period);
}

void SloEngine::tick(sim::Simulation& simu, sim::Duration period) {
  simu.after(period, [this, &simu, period] {
    if (!timer_armed_) return;
    evaluate();
    tick(simu, period);
  });
}

AlarmState SloEngine::state(const Stream* s) const { return s->state; }

double SloEngine::consumed(const Stream* s) const { return s->consumed; }

util::JsonValue SloEngine::log_json() const {
  util::JsonValue arr = util::JsonValue::array();
  for (const AlarmRecord& r : log_) {
    util::JsonValue e = util::JsonValue::object();
    e["t_ns"] = static_cast<std::int64_t>(r.at.ns);
    e["slo"] = r.slo;
    e["from"] = to_string(r.from);
    e["to"] = to_string(r.to);
    e["consumed"] = r.consumed;
    arr.push_back(std::move(e));
  }
  return arr;
}

AlarmView SloEngine::view() const {
  AlarmView v;
  v.published_at = now();
  for (const auto& s : streams_) {
    if (static_cast<int>(s->state) > static_cast<int>(v.worst)) {
      v.worst = s->state;
    }
    if (v.count == AlarmView::kMaxEntries) {
      ++v.dropped;
      continue;
    }
    AlarmEntry& e = v.entries[v.count++];
    s->spec.name.copy(e.name, AlarmEntry::kNameBytes - 1);
    e.state = s->state;
    e.consumed = s->consumed;
    e.since = s->since;
    e.edges = s->edges;
  }
  return v;
}

}  // namespace rdmamon::telemetry
