#include "telemetry/recorder.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "sim/simulation.hpp"

namespace rdmamon::telemetry {

void FlightRing::record(const char* kind, std::int64_t a, std::int64_t b,
                        double x) {
  record_at(owner_ != nullptr ? owner_->now() : sim::TimePoint{}, kind, a, b,
            x);
}

void FlightRing::record_at(sim::TimePoint at, const char* kind,
                           std::int64_t a, std::int64_t b, double x) {
  if (owner_ == nullptr || !owner_->enabled()) return;
  if (head_ == buf_.size() && buf_.size() < capacity_) {
    // Not wrapped yet, and the buffer is full: double it (the events
    // sit at [0, size_), so they keep their places).
    const std::size_t n =
        std::min(capacity_, std::max(kFirstBuffer, 2 * buf_.size()));
    buf_.reserve(n);
    buf_.resize(n);
  }
  FlightEvent& e = buf_[head_];
  if (size_ == capacity_) {
    ++dropped_;  // overwriting the oldest surviving event
  } else {
    ++size_;
  }
  e.at = at;
  e.seq = ++owner_->seq_;
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.x = x;
  head_ = (head_ + 1) % capacity_;
  ++recorded_;
}

std::vector<FlightEvent> FlightRing::events() const {
  std::vector<FlightEvent> out;
  out.reserve(size_);
  // Oldest surviving event sits at head_ when full, else at 0.
  const std::size_t start = size_ == capacity_ ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(buf_[(start + i) % capacity_]);
  }
  return out;
}

FlightRing* FlightRecorder::ring(std::string_view subsystem,
                                 std::size_t capacity) {
  auto it = rings_.find(subsystem);
  if (it == rings_.end()) {
    auto r = std::make_unique<FlightRing>();
    r->owner_ = this;
    r->name_ = std::string(subsystem);
    r->capacity_ = capacity == 0 ? 1 : capacity;
    it = rings_.emplace(r->name_, std::move(r)).first;
  }
  return it->second.get();
}

std::vector<const FlightRing*> FlightRecorder::rings() const {
  std::vector<const FlightRing*> out;
  out.reserve(rings_.size());
  for (const auto& [name, ring] : rings_) out.push_back(ring.get());
  return out;
}

sim::TimePoint FlightRecorder::now() const {
  return simu_ != nullptr ? simu_->now() : sim::TimePoint{};
}

util::JsonValue FlightRecorder::dump(std::string_view reason) const {
  util::JsonValue doc = util::JsonValue::object();
  doc["reason"] = std::string(reason);
  doc["at_ns"] = static_cast<std::int64_t>(now().ns);
  util::JsonValue& ring_arr = doc["rings"];
  ring_arr = util::JsonValue::array();

  struct Tagged {
    const FlightRing* ring;
    FlightEvent ev;
  };
  std::vector<Tagged> merged;
  for (const auto& [name, ring] : rings_) {
    util::JsonValue r = util::JsonValue::object();
    r["name"] = name;
    r["capacity"] = static_cast<std::uint64_t>(ring->capacity());
    r["recorded"] = ring->recorded();
    r["dropped"] = ring->dropped();
    ring_arr.push_back(std::move(r));
    for (const FlightEvent& ev : ring->events()) {
      merged.push_back({ring.get(), ev});
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Tagged& l, const Tagged& r) {
    if (l.ev.at.ns != r.ev.at.ns) return l.ev.at.ns < r.ev.at.ns;
    return l.ev.seq < r.ev.seq;
  });

  util::JsonValue& events = doc["events"];
  events = util::JsonValue::array();
  for (const Tagged& t : merged) {
    util::JsonValue e = util::JsonValue::object();
    e["t_ns"] = static_cast<std::int64_t>(t.ev.at.ns);
    e["seq"] = t.ev.seq;
    e["ring"] = t.ring->name();
    e["kind"] = std::string(t.ev.kind);
    if (t.ev.a != 0) e["a"] = t.ev.a;
    if (t.ev.b != 0) e["b"] = t.ev.b;
    if (t.ev.x != 0.0) e["x"] = t.ev.x;
    events.push_back(std::move(e));
  }
  return doc;
}

std::string FlightRecorder::postmortem(std::string_view reason) {
  std::string dir = dir_;
  if (dir.empty()) {
    const char* env = std::getenv("RDMAMON_FLIGHT_DIR");
    if (env != nullptr) dir = env;
  }
  if (dir.empty()) return "";
  std::string slug;
  for (char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    slug += ok ? c : '_';
  }
  const std::string path =
      dir + "/flight_" + slug + "_" + std::to_string(dumps_++) + ".json";
  std::ofstream os(path, std::ios::trunc);
  if (!os) return "";
  os << dump(reason).dump(2) << "\n";
  return os ? path : "";
}

}  // namespace rdmamon::telemetry
