// Tests of the benchmark's own helpers: percentiles, the symbol-to-layer
// mapping, and the determinism of every-k-th allocation attribution.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "lb/balancer.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "probe.hpp"
#include "profiler.hpp"
#include "sim/simulation.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOverSortedSamples) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 0.5).value, 3);
  EXPECT_EQ(percentile(v, 0.99).value, 5);
  EXPECT_EQ(percentile(v, 0.2).value, 1);
  EXPECT_EQ(percentile(v, 0.21).value, 2);
  EXPECT_EQ(percentile(v, 0.5).samples, 5u);
}

TEST(Percentile, P99OfAThousandSamplesLeavesTenAbove) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Quantile q = percentile(v, 0.99);
  EXPECT_EQ(q.value, 990);
  EXPECT_EQ(q.samples, 1000u);
}

TEST(Percentile, EmptySetReadsZeroWithNoSamples) {
  std::vector<double> v;
  const Quantile q = percentile(v, 0.5);
  EXPECT_EQ(q.value, 0);
  EXPECT_EQ(q.samples, 0u);
}

TEST(Percentile, DescribePrintsTheSampleCount) {
  std::vector<double> v = {1500, 2500, 3500};
  EXPECT_EQ(describe("sim_view_age_p50_us", percentile(v, 0.5), "us"),
            "sim_view_age_p50_us = 2500 us (n=3)");
}

FrameClass module(Layer l) { return {FrameKind::Module, l}; }

void expect_class(const char* mangled, FrameClass want) {
  const FrameClass got = classify_symbol(mangled);
  EXPECT_EQ(got.kind, want.kind) << mangled;
  EXPECT_EQ(got.layer, want.layer) << mangled;
}

TEST(LayerMapping, CoroutineActorClonesTakeTheirFunctionsLayer) {
  expect_class(
      "_ZN7rdmamon2lb12LoadBalancer11poller_bodyEPZNS1_11poller_"
      "bodyERNS_2os9SimThreadENS_3sim8DurationEE83_ZN7rdmamon2lb12LoadBala"
      "ncer11poller_bodyERNS_2os9SimThreadENS_3sim8DurationE.Frame.actor",
      module(Layer::Lb));
  expect_class(
      "_ZN7rdmamon2lb12LoadBalancer11poller_bodyEPZNS1_11poller_"
      "bodyERNS_2os9SimThreadENS_3sim8DurationEE83_ZN7rdmamon2lb12LoadBala"
      "ncer11poller_bodyERNS_2os9SimThreadENS_3sim8DurationE.Frame.actor."
      "cold",
      module(Layer::Lb));
}

TEST(LayerMapping, LambdasTakeTheEnclosingFunctionsLayer) {
  // A lambda in lb whose parameter type lives in telemetry.
  expect_class(
      "_ZZN7rdmamon2lb12LoadBalancer5startERNS_2os4NodeENS_3sim8DurationEEN"
      "KUlNS_9telemetry6LabelsEE0_clES8_.isra.0",
      module(Layer::Lb));
  // std::function's invoker runs the monitor lambda it wraps.
  expect_class(
      "_ZNSt17_Function_handlerIFSt3anyvEZN7rdmamon7monitor14BackendMonitor"
      "C4ERNS2_3net6FabricERNS2_2os4NodeENS3_13MonitorConfigEEUlvE0_E9_M_"
      "invokeERKSt9_Any_data",
      module(Layer::Monitor));
  // ...and one wrapping the benchmark's own lambda is benchmark code.
  expect_class(
      "_ZNSt17_Function_handlerIFN7rdmamon2os7ProgramERNS1_9SimThreadEEZN9p"
      "erfbench8Workload17build_pull_fanoutEvEUlS4_E0_E9_M_invokeERKSt9_Any"
      "_dataS4_",
      {FrameKind::Bench, Layer::Other});
  // sim::InlineFn's invokers do not name their callable.
  expect_class("_ZN7rdmamon3sim8InlineFnUlPvE10_4_FUNES2_",
               module(Layer::Sim));
}

TEST(LayerMapping, TemplatesUseTheFunctionsOwnNamespace) {
  expect_class(
      "_ZN7rdmamon9telemetry7observeINS_3sim8DurationEEEvPNS0_"
      "15HistogramMetricET_",
      module(Layer::Telemetry));
  // A std container of a net type is charged to whoever called it.
  expect_class(
      "_ZNSt6vectorIN7rdmamon3net7MessageESaIS2_EE17_M_realloc_insertIJRKS2"
      "_EEEvN9__gnu_cxx17__normal_iteratorIPS2_S4_EEDpOT_",
      {FrameKind::Transparent, Layer::Other});
}

TEST(LayerMapping, ModulesThunksAndOutsiders) {
  expect_class("_ZThn8_N7rdmamon3net3Nic2rxENS0_7MessageE",
               module(Layer::Net));
  expect_class(
      "_ZN7rdmamon8reconfig18FrontendMembership4joinEiRKNSt7__cxx1112basic_"
      "stringIcSt11char_traitsIcESaIcEEE",
      module(Layer::Cluster));
  expect_class(
      "_ZN7rdmamon4util11json_escapeERKNSt7__cxx1112basic_stringIcSt11char_"
      "traitsIcESaIcEEE",
      {FrameKind::Transparent, Layer::Other});
  expect_class("main", {FrameKind::Bench, Layer::Other});
  expect_class("malloc", {FrameKind::Transparent, Layer::Other});
}

TEST(LayerMapping, InnermostModuleFrameOwnsTheSample) {
  const FrameClass std_frame{FrameKind::Transparent, Layer::Other};
  const FrameClass bench{FrameKind::Bench, Layer::Other};
  const FrameClass a[] = {std_frame, module(Layer::Net), module(Layer::Sim)};
  EXPECT_EQ(charge(a, 3), Layer::Net);
  const FrameClass b[] = {std_frame, bench, module(Layer::Sim)};
  EXPECT_EQ(charge(b, 3), Layer::Other);
  const FrameClass c[] = {std_frame, std_frame};
  EXPECT_EQ(charge(c, 2), Layer::Other);
}

/// A small pull-monitoring run whose allocations are sampled.
LayerTally sampled_run(const SymbolTable& syms) {
  using namespace rdmamon;
  LayerTally tally{};
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node fe(simu, {.name = "fe"});
  fabric.attach(fe);
  lb::LoadBalancer lb(lb::WeightConfig::for_scheme(monitor::Scheme::RdmaSync));
  std::vector<std::unique_ptr<os::Node>> backends;
  monitor::MonitorConfig mcfg;
  mcfg.scheme = monitor::Scheme::RdmaSync;
  for (int i = 0; i < 8; ++i) {
    backends.push_back(std::make_unique<os::Node>(
        simu, os::NodeConfig{.name = "be" + std::to_string(i)}));
    fabric.attach(*backends.back());
    lb.add_backend(std::make_unique<monitor::MonitorChannel>(
        fabric, fe, *backends.back(), mcfg));
  }
  lb.start(fe, sim::msec(1));
  start_alloc_sampling(syms, 7, &tally);
  simu.run_for(sim::msec(200));
  stop_alloc_sampling();
  return tally;
}

TEST(AllocAttribution, EveryKthAllocationIsChargedDeterministically) {
  SymbolTable syms;
  ASSERT_TRUE(syms.load_self());
  const LayerTally first = sampled_run(syms);
  const LayerTally second = sampled_run(syms);
  EXPECT_EQ(first, second);
  std::uint64_t total = 0, in_modules = 0;
  for (std::size_t l = 0; l < kLayers; ++l) {
    total += first[l];
    if (static_cast<Layer>(l) != Layer::Other) in_modules += first[l];
  }
  EXPECT_GT(total, 100u);
  EXPECT_EQ(in_modules, total) << "the run makes no allocation of its own";
}

}  // namespace
}  // namespace perfbench
