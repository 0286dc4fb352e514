#include "telemetry/registry.hpp"

#include <algorithm>
#include <cstring>

namespace rdmamon::telemetry {

Labels::Labels(
    std::initializer_list<std::pair<std::string, std::string>> kv) {
  for (const auto& p : kv) kv_.push_back(p);
  std::sort(kv_.begin(), kv_.end());
}

Labels& Labels::add(std::string key, std::string value) {
  kv_.emplace_back(std::move(key), std::move(value));
  std::sort(kv_.begin(), kv_.end());
  return *this;
}

std::string Labels::canonical() const {
  std::string out;
  for (const auto& [k, v] : kv_) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

const SnapshotEntry* Snapshot::find(std::string_view name,
                                    std::string_view labels) const {
  for (const SnapshotEntry& e : entries) {
    if (e.name == name && (labels.empty() || e.labels == labels)) return &e;
  }
  return nullptr;
}

Registry::~Registry() {
  if (simu_ && simu_->telemetry() == this) simu_->set_telemetry(nullptr);
}

void Registry::install(sim::Simulation& simu) {
  simu_ = &simu;
  simu.set_telemetry(this);
  recorder_.bind_clock([s = &simu] { return s->now(); });
}

Registry::Instrument& Registry::resolve(std::string_view name,
                                        const Labels& labels,
                                        SnapshotEntry::Kind kind) {
  auto key = std::make_pair(std::string(name), labels.canonical());
  auto it = instruments_.find(key);
  if (it == instruments_.end()) {
    Instrument inst;
    inst.kind = kind;
    it = instruments_.emplace(std::move(key), std::move(inst)).first;
  }
  // A key can be asked for under several kinds (first-wins for export);
  // the histogram slot is heap-backed, so materialise it on demand.
  if (kind == SnapshotEntry::Kind::Histogram && !it->second.hist) {
    it->second.hist = std::make_unique<HistogramMetric>();
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name, const Labels& labels) {
  return resolve(name, labels, SnapshotEntry::Kind::Counter).counter;
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels) {
  return resolve(name, labels, SnapshotEntry::Kind::Gauge).gauge;
}

HistogramMetric& Registry::histogram(std::string_view name,
                                     const Labels& labels) {
  return *resolve(name, labels, SnapshotEntry::Kind::Histogram).hist;
}

std::uint64_t Registry::add_collector(std::function<void(Registry&)> fn) {
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(fn));
  return id;
}

void Registry::remove_collector(std::uint64_t id) {
  std::erase_if(collectors_, [id](const auto& c) { return c.first == id; });
}

void ScopedCollector::bind(sim::Simulation& simu,
                           std::function<void(Registry&)> fn) {
  release();
  Registry* reg = Registry::of(simu);
  if (reg == nullptr) return;
  simu_ = &simu;
  reg_ = reg;
  id_ = reg->add_collector(std::move(fn));
}

void ScopedCollector::release() {
  if (reg_ != nullptr && simu_ != nullptr && Registry::of(*simu_) == reg_) {
    reg_->remove_collector(id_);
  }
  simu_ = nullptr;
  reg_ = nullptr;
  id_ = 0;
}

Snapshot Registry::snapshot() {
  if (simu_ != nullptr) {
    // DES-kernel self-monitoring: published here, not on the event hot
    // path, so instrumenting the queue costs nothing per event.
    // sim_events_tombstoned tracks cancelled events still occupying pool
    // slots ahead of the lazy sweep — the price of O(1) cancellation.
    gauge("sim_events_executed").set(
        static_cast<double>(simu_->events_executed()));
    gauge("sim_events_pending").set(
        static_cast<double>(simu_->events_pending()));
    gauge("sim_events_cancelled").set(
        static_cast<double>(simu_->events_cancelled()));
    gauge("sim_events_tombstoned").set(
        static_cast<double>(simu_->events_tombstoned()));
  }
  if (recorder_.total_recorded() > 0) {
    // Flight-recorder self-accounting, published only once something was
    // recorded so recorder-free runs keep their exact snapshot shape.
    std::uint64_t dropped = 0;
    for (const FlightRing* r : recorder_.rings()) dropped += r->dropped();
    gauge("telemetry.flight.recorded").set(
        static_cast<double>(recorder_.total_recorded()));
    gauge("telemetry.flight.dropped").set(static_cast<double>(dropped));
  }
  for (const auto& [id, fn] : collectors_) fn(*this);
  Snapshot snap;
  snap.at = now();
  snap.entries.reserve(instruments_.size());
  for (const auto& [key, inst] : instruments_) {
    SnapshotEntry e;
    e.name = key.first;
    e.labels = key.second;
    e.kind = inst.kind;
    switch (inst.kind) {
      case SnapshotEntry::Kind::Counter:
        e.value = static_cast<double>(inst.counter.value());
        break;
      case SnapshotEntry::Kind::Gauge:
        e.value = inst.gauge.value();
        break;
      case SnapshotEntry::Kind::Histogram: {
        const sim::Histogram& h = inst.hist->histogram();
        e.hist.count = h.count();
        e.hist.mean = h.mean();
        e.hist.min = h.min();
        e.hist.max = h.max();
        e.hist.p50 = h.percentile(0.50);
        e.hist.p90 = h.percentile(0.90);
        e.hist.p99 = h.percentile(0.99);
        e.value = static_cast<double>(e.hist.count);
        break;
      }
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

SnapshotImage::SnapshotImage(const Snapshot& snap) : at(snap.at) {
  for (const SnapshotEntry& e : snap.entries) {
    const std::size_t text = e.name.size() + e.labels.size();
    if (count == kMaxEntries || kTextBytes - text_used < text) {
      ++dropped;
      continue;
    }
    Entry& out = entries[count++];
    out.name_at = text_used;
    out.name_len = static_cast<std::uint16_t>(e.name.size());
    std::memcpy(this->text + text_used, e.name.data(), e.name.size());
    text_used += static_cast<std::uint32_t>(e.name.size());
    out.labels_at = text_used;
    out.labels_len = static_cast<std::uint16_t>(e.labels.size());
    std::memcpy(this->text + text_used, e.labels.data(), e.labels.size());
    text_used += static_cast<std::uint32_t>(e.labels.size());
    out.kind = e.kind;
    out.value = e.value;
    out.hist = e.hist;
  }
}

Snapshot SnapshotImage::snapshot() const {
  Snapshot snap;
  snap.at = at;
  snap.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const Entry& e = entries[i];
    SnapshotEntry out;
    out.name.assign(text + e.name_at, e.name_len);
    out.labels.assign(text + e.labels_at, e.labels_len);
    out.kind = e.kind;
    out.value = e.value;
    out.hist = e.hist;
    snap.entries.push_back(std::move(out));
  }
  return snap;
}

}  // namespace rdmamon::telemetry
