#include "telemetry/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "util/format.hpp"

namespace rdmamon::telemetry {

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "rdmamon_";
  for (char c : name) out += (c == '.' || c == '-') ? '_' : c;
  return out;
}

/// Prometheus label-value escaping: backslash, double quote and newline
/// must be escaped inside the quoted value (exposition format spec).
std::string prom_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// `{k1="v1",k2="v2"}` from the canonical label string ("" -> "").
/// Values are escaped at emission; keys are registry-controlled
/// identifiers and pass through.
std::string prom_labels(const std::string& canonical,
                        const std::string& extra = "") {
  if (canonical.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  std::string key, val;
  bool in_key = true;
  auto flush = [&] {
    if (key.empty()) return;
    if (!first) out += ',';
    first = false;
    out += key + "=\"" + prom_escape(val) + "\"";
    key.clear();
    val.clear();
  };
  for (char c : canonical) {
    if (c == '=' && in_key) {
      in_key = false;
    } else if (c == ',') {
      flush();
      in_key = true;
    } else {
      (in_key ? key : val) += c;
    }
  }
  flush();
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

/// HELP text escaping: backslash and newline (spec; no quote escaping).
std::string help_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

const char* kind_str(SnapshotEntry::Kind k) {
  switch (k) {
    case SnapshotEntry::Kind::Counter: return "counter";
    case SnapshotEntry::Kind::Gauge: return "gauge";
    case SnapshotEntry::Kind::Histogram: return "histogram";
  }
  return "?";
}

}  // namespace

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  out += "# rdmamon telemetry snapshot at t=" + std::to_string(snap.at.ns) +
         "ns\n";
  // Snapshot entries arrive sorted by (name, labels), so every label set
  // of one metric is contiguous: emit HELP/TYPE once per metric name (a
  // repeated TYPE line for the same name is a parse error in real
  // scrapers), then the samples.
  std::string last_name;
  for (const SnapshotEntry& e : snap.entries) {
    const std::string name = prom_name(e.name);
    const bool first_of_name = e.name != last_name;
    last_name = e.name;
    switch (e.kind) {
      case SnapshotEntry::Kind::Counter:
        if (first_of_name) {
          out += "# HELP " + name + "_total rdmamon counter " +
                 help_escape(e.name) + "\n";
          out += "# TYPE " + name + "_total counter\n";
        }
        out += name + "_total" + prom_labels(e.labels) + " " + num(e.value) +
               "\n";
        break;
      case SnapshotEntry::Kind::Gauge:
        if (first_of_name) {
          out += "# HELP " + name + " rdmamon gauge " + help_escape(e.name) +
                 "\n";
          out += "# TYPE " + name + " gauge\n";
        }
        out += name + prom_labels(e.labels) + " " + num(e.value) + "\n";
        break;
      case SnapshotEntry::Kind::Histogram: {
        if (first_of_name) {
          out += "# HELP " + name + " rdmamon histogram summary " +
                 help_escape(e.name) + "\n";
          out += "# TYPE " + name + " summary\n";
        }
        out += name + "_count" + prom_labels(e.labels) + " " +
               num(static_cast<double>(e.hist.count)) + "\n";
        out += name + "_mean" + prom_labels(e.labels) + " " +
               num(e.hist.mean) + "\n";
        const std::pair<const char*, double> qs[] = {
            {"0.5", e.hist.p50}, {"0.9", e.hist.p90}, {"0.99", e.hist.p99}};
        for (const auto& [q, v] : qs) {
          out += name +
                 prom_labels(e.labels,
                             std::string("quantile=\"") + q + "\"") +
                 " " + num(v) + "\n";
        }
        break;
      }
    }
  }
  return out;
}

util::JsonValue to_json(const Snapshot& snap) {
  util::JsonValue doc = util::JsonValue::object();
  doc["at_ns"] = static_cast<std::int64_t>(snap.at.ns);
  util::JsonValue& metrics = doc["metrics"];
  metrics = util::JsonValue::array();
  for (const SnapshotEntry& e : snap.entries) {
    util::JsonValue m = util::JsonValue::object();
    m["name"] = e.name;
    if (!e.labels.empty()) m["labels"] = e.labels;
    m["kind"] = kind_str(e.kind);
    if (e.kind == SnapshotEntry::Kind::Histogram) {
      m["count"] = e.hist.count;
      m["mean"] = e.hist.mean;
      m["min"] = e.hist.min;
      m["max"] = e.hist.max;
      m["p50"] = e.hist.p50;
      m["p90"] = e.hist.p90;
      m["p99"] = e.hist.p99;
    } else {
      m["value"] = e.value;
    }
    metrics.push_back(std::move(m));
  }
  return doc;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << text;
  return static_cast<bool>(os);
}

void print_dashboard(std::ostream& os, const Snapshot& snap) {
  os << "-- telemetry @ t=" << sim::to_string(snap.at) << " ("
     << snap.entries.size() << " instruments) --\n";
  // Group into sections by the name's first '.'-component. Entries are
  // pre-sorted by (name, labels), but different instrument KINDS sharing
  // a prefix used to interleave their section headers; sorting section
  // keys explicitly keeps the rendering deterministic regardless of how
  // entries arrive.
  std::map<std::string, std::vector<const SnapshotEntry*>> sections;
  for (const SnapshotEntry& e : snap.entries) {
    const std::size_t dot = e.name.find('.');
    sections[dot == std::string::npos ? e.name.substr(0, e.name.find('_'))
                                      : e.name.substr(0, dot)]
        .push_back(&e);
  }
  for (const auto& [section, entries] : sections) {
    os << "  [" << section << "]\n";
    for (const SnapshotEntry* ep : entries) {
      const SnapshotEntry& e = *ep;
      os << "    " << util::pad_right(e.name, 34);
      if (!e.labels.empty()) os << "{" << e.labels << "} ";
      switch (e.kind) {
        case SnapshotEntry::Kind::Counter:
          os << num(e.value);
          break;
        case SnapshotEntry::Kind::Gauge:
          os << num(e.value);
          break;
        case SnapshotEntry::Kind::Histogram:
          os << "n=" << e.hist.count << " mean=" << num(e.hist.mean)
             << " p50=" << num(e.hist.p50) << " p99=" << num(e.hist.p99);
          break;
      }
      os << '\n';
    }
  }
}

}  // namespace rdmamon::telemetry
