#include "web/cluster.hpp"

namespace rdmamon::web {

ClusterTestbed::ClusterTestbed(sim::Simulation& simu, ClusterConfig cfg)
    : simu_(simu), cfg_(cfg), seed_rng_(cfg.seed) {
  fabric_ = std::make_unique<net::Fabric>(simu_, cfg_.fabric);

  monitor::MonitorConfig mcfg;
  mcfg.scheme = cfg_.scheme;
  mcfg.period = cfg_.monitor_period;
  mcfg.fetch_timeout = cfg_.fetch_timeout;
  mcfg.fetch_retries = cfg_.fetch_retries;
  mcfg.retry_backoff = cfg_.retry_backoff;
  mcfg.tenant = cfg_.monitor_tenant;

  if (cfg_.frontends <= 1) {
    // The paper's single-front-end testbed, wired exactly as before the
    // scale-out plane existed (same node names, same construction order,
    // same thread spawn order) so fixed-seed runs stay byte-identical.
    frontends_.push_back(
        std::make_unique<os::Node>(simu_, os::NodeConfig{.name = "frontend"}));
    os::Node& fe = *frontends_.back();
    fabric_->attach(fe);

    lb_ = std::make_unique<lb::LoadBalancer>(
        lb::WeightConfig::for_scheme(cfg_.scheme));
    dispatchers_.push_back(
        std::make_unique<lb::Dispatcher>(*fabric_, fe, *lb_));
    // A back end declared Dead immediately rejects its pending requests so
    // closed-loop clients unblock and retraffic the survivors.
    dispatchers_.back()->enable_failover();

    for (int i = 0; i < cfg_.backends; ++i) {
      os::Node& node = add_backend_node(i);
      dispatchers_.back()->add_backend(*servers_.back());
      lb_->add_backend(
          std::make_unique<monitor::MonitorChannel>(*fabric_, fe, node, mcfg));
    }
    lb_->start(fe, cfg_.lb_granularity);
  } else {
    // Scale-out testbed: M front ends over one shared back-end set. The
    // plane owns the balancers (one per front end, poll-filtered to its
    // ring shard) and the shared per-back-end monitors; each front end
    // gets its own dispatcher over every server.
    plane_ = std::make_unique<cluster::ScaleOutPlane>(*fabric_, cfg_.scaleout,
                                                      mcfg);
    for (int m = 0; m < cfg_.frontends; ++m) {
      frontends_.push_back(std::make_unique<os::Node>(
          simu_, os::NodeConfig{.name = "frontend" + std::to_string(m)}));
      os::Node& fe = *frontends_.back();
      fabric_->attach(fe);
      cluster::FrontendPlane& fp = plane_->add_frontend(
          fe, lb::WeightConfig::for_scheme(cfg_.scheme));
      dispatchers_.push_back(
          std::make_unique<lb::Dispatcher>(*fabric_, fe, fp.balancer()));
      dispatchers_.back()->enable_failover();
    }
    for (int i = 0; i < cfg_.backends; ++i) {
      plane_->add_backend(add_backend_node(i));
      for (auto& d : dispatchers_) d->add_backend(*servers_.back());
    }
    plane_->start(cfg_.lb_granularity);
  }

  if (cfg_.admission_threshold >= 0.0) {
    admission_ =
        std::make_unique<lb::AdmissionController>(cfg_.admission_threshold);
    for (auto& d : dispatchers_) d->set_admission(admission_.get());
  }
}

ClusterTestbed::~ClusterTestbed() = default;

os::Node& ClusterTestbed::add_backend_node(int i) {
  backends_.push_back(std::make_unique<os::Node>(
      simu_, os::NodeConfig{.name = "backend" + std::to_string(i)}));
  os::Node& node = *backends_.back();
  fabric_->attach(node);
  servers_.push_back(std::make_unique<WebServer>(*fabric_, node, cfg_.server));
  return node;
}

ClientGroup& ClusterTestbed::add_clients(int nodes, RequestGenerator gen,
                                         ClientGroupConfig ccfg) {
  if (ccfg.name.empty() || (ccfg.name == "g0" && !groups_.empty())) {
    ccfg.name = "g" + std::to_string(groups_.size());
  }
  std::vector<os::Node*> group_nodes;
  for (int i = 0; i < nodes; ++i) {
    // The paper's client nodes are bigger (2x 3.0 GHz, 2 GB).
    clients_.push_back(std::make_unique<os::Node>(
        simu_,
        os::NodeConfig{.name = "client" + std::to_string(clients_.size()),
                       .memory_bytes = 2ull << 30}));
    fabric_->attach(*clients_.back());
    group_nodes.push_back(clients_.back().get());
  }
  // Scale-out mode: client groups spread round-robin over the front-end
  // dispatchers (group g talks to front end g mod M). Single-front-end
  // mode has one dispatcher, so this is the historical wiring.
  lb::Dispatcher& disp = *dispatchers_[groups_.size() % dispatchers_.size()];
  groups_.push_back(std::make_unique<ClientGroup>(
      *fabric_, disp, std::move(group_nodes), std::move(gen), ccfg,
      seed_rng_.split()));
  return *groups_.back();
}

RequestGenerator make_rubis_generator() {
  auto wl = std::make_shared<workload::RubisWorkload>();
  return [wl](sim::Rng& rng) {
    const auto inst = wl->sample_instance(rng);
    Request r;
    r.query_class = static_cast<int>(inst.query);
    r.demand.cpu_php = inst.php_cpu;
    r.demand.cpu_db = inst.db_cpu;
    r.demand.io_wait = inst.db_io;
    r.demand.reply_bytes = inst.reply_bytes;
    return r;
  };
}

RequestGenerator make_zipf_generator(
    std::shared_ptr<const workload::ZipfTrace> trace) {
  return [trace](sim::Rng& rng) {
    const workload::StaticRequest sr = trace->sample(rng);
    Request r;
    r.query_class = kStaticClass;
    r.is_static = true;
    r.demand.cpu_php = sr.cpu_demand;
    r.demand.io_wait = sr.io_wait;
    r.demand.reply_bytes = sr.bytes;
    return r;
  };
}

}  // namespace rdmamon::web
