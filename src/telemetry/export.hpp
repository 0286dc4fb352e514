// Snapshot export: Prometheus-style text exposition and a JSON document
// (via util::JsonValue). Pure functions of a Snapshot, so exports are as
// deterministic as the run that produced them. Events have one export
// path of their own: FlightRecorder::dump (telemetry/recorder.hpp).
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/registry.hpp"
#include "util/json.hpp"

namespace rdmamon::telemetry {

/// Prometheus text exposition format:
///   rdmamon_monitor_fetch_total{scheme="RDMA-Sync",backend="b0"} 42
/// Metric names are the registry names with '.' -> '_' and an "rdmamon_"
/// prefix; histograms emit _count/_sum-less summary gauges (p50/p90/p99),
/// which is what our scrapeless file-dump consumers actually read.
std::string to_prometheus(const Snapshot& snap);

/// JSON document: {"at_ns": ..., "metrics": [{name, labels, kind, ...}]}.
util::JsonValue to_json(const Snapshot& snap);

/// Writes `text` to `path`, returning false (and leaving a partial file
/// possibly behind) on I/O failure.
bool write_file(const std::string& path, const std::string& text);

/// Human-oriented dashboard: metrics grouped by name with aligned values
/// — what the examples print.
void print_dashboard(std::ostream& os, const Snapshot& snap);

}  // namespace rdmamon::telemetry
