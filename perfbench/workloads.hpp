// The benchmark's three workloads, built from the program's public
// constructors and config structs and observed only through public
// accessors and hooks (never through telemetry instrument names).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/scaleout.hpp"
#include "lb/balancer.hpp"
#include "lb/dispatcher.hpp"
#include "monitor/inbox.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"
#include "web/client.hpp"
#include "web/cluster.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {

using namespace rdmamon;

/// Run lengths of one workload. Warm-up is simulated time every run pays
/// before the measured interval.
struct RunShape {
  sim::Duration warmup;
  sim::Duration measure;
};

/// Simulated time between the benchmark's drains of the dispatch logs
/// (and its health samples).
inline constexpr sim::Duration kSlice = sim::msec(10);

/// Cumulative exact counts read through public accessors.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t rdma_ops = 0;
  std::uint64_t packets = 0;
  std::uint64_t monitor_wire_bytes = 0;
  std::uint64_t fetch_failures = 0;
  std::uint64_t fetch_attempts = 0;
  std::uint64_t fetch_ok = 0;
  std::uint64_t pushes = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t gossip_reads = 0;
  std::uint64_t stale_marks = 0;
  std::uint64_t mode_switches = 0;
  std::uint64_t web_served = 0;
  std::uint64_t failed_over = 0;
  std::uint64_t issued = 0;     ///< request-generator calls
  std::uint64_t completed = 0;  ///< client ResponseStats
  std::uint64_t refused = 0;
  std::uint64_t picks = 0;      ///< dispatch records drained
};

/// Host time spent in the benchmark's own calls into the program
/// (recorded only when the workload is built with `timed`).
struct Spans {
  std::uint64_t run_slices = 0;
  double run_ns = 0.0;  ///< inside Simulation::run_until
  std::uint64_t pick_calls = 0;
  double pick_ns = 0.0;
  std::uint64_t gen_calls = 0;
  double gen_ns = 0.0;
};

class Workload {
 public:
  /// Builds `name` ("rubis_zipf", "pull_fanout", "push_scaleout") for
  /// `seed`. `registry` installs the workload's telemetry (pull_fanout
  /// and push_scaleout only; false builds the registry-off replica).
  static std::unique_ptr<Workload> make(const std::string& name,
                                        std::uint64_t seed, bool registry,
                                        bool timed);
  static bool known(const std::string& name);
  static RunShape shape(const std::string& name);

  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  sim::Simulation& simu() { return simu_; }
  telemetry::Registry* registry() { return reg_.get(); }
  bool has_clients() const { return !groups_.empty(); }
  int client_threads() const { return client_threads_; }

  /// Runs the simulation to `t`, then drains the dispatch logs; with
  /// `record`, keeps their view ages and samples back-end health.
  void advance(sim::TimePoint t, bool record);
  /// Starts the measured interval: clears the client response stats.
  void begin_measure();

  Counts counts() const;
  const Spans& spans() const { return spans_; }

  // Samples gathered in the measured interval.
  std::vector<double>& view_age_ns() { return view_age_ns_; }
  std::vector<double>& fetch_latency_ns() { return fetch_lat_ns_; }
  /// Mean share of (front end, back end) pairs marked Dead.
  double dead_frac() const {
    return dead_samples_ ? dead_sum_ / static_cast<double>(dead_samples_) : 0.0;
  }
  /// Merged client response-time histogram of the measured interval.
  sim::Histogram response_hist() const;
  /// Problems the workload's own output checks found.
  std::vector<std::string> check(const Counts& end) const;

 private:
  Workload(std::uint64_t seed, bool timed) : seed_(seed), timed_(timed) {}
  void install_registry(bool slo);
  void build_rubis_zipf();
  void build_pull_fanout();
  void build_push_scaleout();
  /// Common observation wiring once the topology exists.
  void observe();
  web::RequestGenerator counted(web::RequestGenerator inner);
  os::Program dispatcher_body(os::SimThread& self);
  os::Program toggler_body(os::SimThread& self, sim::Duration offset);

  std::uint64_t seed_;
  bool timed_;
  // Declared first: the simulation and the telemetry plane outlive every
  // model object (the balancer removes its SLO probes on destruction).
  sim::Simulation simu_;
  std::unique_ptr<telemetry::Registry> reg_;
  std::unique_ptr<telemetry::SloEngine> slo_;

  // rubis_zipf / push_scaleout
  std::unique_ptr<web::ClusterTestbed> bed_;
  std::unique_ptr<os::Node> storage_;
  std::unique_ptr<workload::DisturbanceGenerator> disturb_;
  std::vector<web::ClientGroup*> groups_;
  int client_threads_ = 0;
  std::uint64_t completed_before_ = 0, refused_before_ = 0;

  // pull_fanout
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<os::Node> frontend_;
  std::vector<std::unique_ptr<os::Node>> backends_;
  std::unique_ptr<lb::LoadBalancer> lb_;

  // Observation handles.
  net::Fabric* fab_ = nullptr;
  std::vector<os::Node*> nodes_;
  std::vector<int> monitor_nodes_;  ///< front and back ends
  std::vector<lb::LoadBalancer*> balancers_;
  std::vector<lb::Dispatcher*> dispatchers_;
  std::vector<web::WebServer*> servers_;
  std::vector<cluster::FrontendPlane*> planes_;
  std::vector<monitor::PushPublisher*> publishers_;
  std::vector<std::vector<sim::TimePoint>> last_retrieved_;

  std::uint64_t issued_ = 0;
  std::uint64_t fetch_attempts_ = 0;
  std::uint64_t fetch_ok_ = 0;
  std::uint64_t picks_ = 0;
  std::uint64_t no_view_picks_ = 0;
  bool log_overflow_ = false;
  bool recording_ = false;
  std::vector<double> view_age_ns_;
  std::vector<double> fetch_lat_ns_;
  double dead_sum_ = 0.0;
  std::uint64_t dead_samples_ = 0;
  Spans spans_;
};

}  // namespace perfbench
