// Tenant-tagged hostile traffic generators (the noisy neighbors). Each
// storm is a family of poster threads on a home node hammering one-sided
// ops at a set of target MRs, with every WR stamped with the storm's
// TenantId so fabric QoS can arbitrate it and cache evictions can be
// attributed to it. Four presets cover the classic attack surfaces:
//
//  - ReadStorm:     many mid-size READs; queues work on the victims'
//                   DMA engines and the shared links.
//  - BandwidthHog:  few huge READs; saturates bandwidth and builds
//                   standing DMA queues that bury a monitor's tiny READs.
//  - CqFlood:       max-rate tiny signaled READs; pure op-rate/CQE
//                   pressure (per-op DMA base cost dominates).
//  - MrThrash:      register/deregister churn over a pool of regions
//                   while READing them round-robin — displaces victims'
//                   QP/MR entries from the bounded NIC context cache.
//
// Storms post through real verbs QpContexts (the tenant tag rides the
// contexts and WRs, exercising the same path monitoring uses) with an
// open-loop outstanding window: posting is paced but does NOT wait for
// completions until the window fills, which is what builds the standing
// queues a closed-loop generator never could.
//
// Storms start/stop via FaultPlan StormStart/StormStop events (see
// drive_storms), so noisy-neighbor pressure composes with crashes and
// lossy links in one declarative schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "os/program.hpp"
#include "os/wait.hpp"

namespace rdmamon::workload {

enum class StormKind { ReadStorm, BandwidthHog, CqFlood, MrThrash };
const char* to_string(StormKind k);

/// One target of a storm: a registered MR on some node's NIC.
struct StormTarget {
  int node = -1;
  net::MrKey mr{};
};

struct TenantStormConfig {
  net::TenantId tenant = 9;
  StormKind kind = StormKind::ReadStorm;
  /// Poster threads, each with its own QpContext (cache-churn fan-out).
  int contexts = 4;
  /// READ size per op.
  std::size_t op_bytes = 32 * 1024;
  /// Open-loop cap: total WRs in flight across the storm. The window is
  /// what builds standing target queues; size it to the damage wanted.
  std::size_t max_outstanding = 256;
  /// Pacing between posting rounds of one poster thread.
  sim::Duration post_period = sim::usec(5);
  /// WRs posted back-to-back per round (one doorbell, WR-list style).
  /// Scheduler wakeups are tick-granular, so per-op posting could never
  /// keep a deep outstanding window full; bursts can.
  int burst = 16;

  // Characteristic presets (tenant/targets still the caller's choice).
  static TenantStormConfig read_storm();
  static TenantStormConfig bandwidth_hog();
  static TenantStormConfig cq_flood();
  static TenantStormConfig mr_thrash();
};

class TenantStorm {
 public:
  /// The storm rotates over `targets` round-robin. MrThrash uses only the
  /// `node` of each target: it registers (and churns) its own MR pools on
  /// those nodes' NICs instead of reading a fixed region.
  TenantStorm(net::Fabric& fabric, os::Node& home,
              std::vector<StormTarget> targets, TenantStormConfig cfg);
  ~TenantStorm();

  TenantStorm(const TenantStorm&) = delete;
  TenantStorm& operator=(const TenantStorm&) = delete;

  /// Spawns the poster/drain threads. Idempotent while running. Safe to
  /// call mid-simulation (the StormStart path).
  void start();
  /// Kills the threads. Already-posted WRs complete normally and keep
  /// draining the window, so a stopped storm's pressure decays at the
  /// victims' service rate — exactly like a real aggressor dying.
  void stop();
  bool running() const { return running_; }

  net::TenantId tenant() const { return cfg_.tenant; }
  const TenantStormConfig& config() const { return cfg_; }

  // --- counters -------------------------------------------------------------
  std::uint64_t posted() const { return posted_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t bytes_completed() const { return bytes_completed_; }
  std::size_t outstanding() const { return outstanding_; }

 private:
  os::Program poster_body(os::SimThread& self, int idx);
  os::Program drain_body(os::SimThread& self);
  void post_one(int idx, std::size_t& rr);
  void handle(net::Completion c);

  net::Fabric* fabric_;
  os::Node* home_;
  std::vector<StormTarget> targets_;
  TenantStormConfig cfg_;
  bool running_ = false;
  std::size_t outstanding_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t bytes_completed_ = 0;
  std::vector<os::SimThread*> threads_;
  std::vector<std::shared_ptr<net::QpContext>> ctxs_;
  net::CompletionQueue cq_;
  os::WaitQueue window_wq_;  ///< posters block here when the window fills
  /// MrThrash: per-target pools of this tenant's registered regions.
  std::vector<std::vector<net::MrKey>> pools_;
};

/// Wires a FaultInjector's StormStart/StormStop events to generators:
/// event storm id i starts/stops storms[i]. Out-of-range ids are inert.
/// The storms must outlive the injector's armed plans.
void drive_storms(fault::FaultInjector& injector,
                  std::vector<TenantStorm*> storms);

}  // namespace rdmamon::workload
