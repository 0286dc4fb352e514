// WebSphere-style weighted load balancing (Section 5.2.1): CPU, memory,
// network and connection load indices are combined into one scalar; the
// dispatcher forwards each request to the least-loaded back end. The
// e-RDMA-Sync scheme additionally penalises back ends with pending
// interrupts (hidden load the classic indices miss).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "monitor/adaptive.hpp"
#include "monitor/inbox.hpp"
#include "monitor/monitor.hpp"
#include "monitor/scatter.hpp"
#include "monitor/scheme.hpp"
#include "os/node.hpp"
#include "sim/time.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"

namespace rdmamon::lb {

/// Weights of the combined load index. Each component is first scaled
/// to [0,1] by the capacities in monitor/inbox.hpp.
inline constexpr double kWCpu = 0.30;
inline constexpr double kWMem = 0.10;
inline constexpr double kWNet = 0.10;
inline constexpr double kWConn = 0.10;
/// Weight of the instantaneous run-queue length (nr_running). This is
/// the fastest-moving component of the index — the signal whose
/// staleness separates the schemes (the utilisation EMA is smoothed by
/// construction, run-queue length is not).
inline constexpr double kWRunq = 0.50;

/// A server whose index reaches this is treated as overloaded and gets
/// zero weight (unless every server is overloaded) — the WebSphere
/// behaviour of taking a hot server out of rotation entirely.
inline constexpr double kOverloadCutoff = 0.75;

/// The scheme-dependent part of the load index.
struct WeightConfig {
  /// Added per pending interrupt (e-RDMA-Sync only; 0 elsewhere).
  double irq_penalty = 0.0;

  /// Defaults for a scheme: e-RDMA-Sync turns the IRQ term on.
  static WeightConfig for_scheme(monitor::Scheme s) {
    WeightConfig w;
    if (s == monitor::Scheme::ERdmaSync) w.irq_penalty = 0.15;
    return w;
  }
};

/// Scalar load index of one snapshot (higher = more loaded).
double load_index(const os::LoadSnapshot& info, const WeightConfig& w);

/// Failure-detector state of one back end, driven purely by monitoring
/// fetch outcomes (the only signal the front end has).
enum class BackendHealth {
  Healthy,  ///< fetches succeeding
  Suspect,  ///< >= kSuspectAfter consecutive failures; still dispatched
  Dead,     ///< >= kDeadAfter consecutive failures; out of rotation
};

inline const char* to_string(BackendHealth h) {
  switch (h) {
    case BackendHealth::Healthy: return "healthy";
    case BackendHealth::Suspect: return "suspect";
    case BackendHealth::Dead: return "dead";
  }
  return "?";
}

/// Thresholds of the consecutive-failure detector.
inline constexpr int kSuspectAfter = 1;  ///< consecutive failures before Suspect
inline constexpr int kDeadAfter = 3;     ///< consecutive failures before Dead
inline constexpr int kReadmitAfter = 2;  ///< successes to re-admit a Dead one
/// A Dead back end is probed only every this many poll rounds: each
/// probe costs a full fetch_timeout, so probing every round would let
/// one dead server slow the whole poll loop.
inline constexpr int kDeadProbeEvery = 8;

/// Which refresh path produced a back end's current sample — the
/// "scheme" label of the lineage histograms ("push"/"gossip", or the
/// channel's wire scheme name for pull).
enum class ViewSource : std::uint8_t { Pull = 0, Push = 1, Gossip = 2 };

/// Everything one front end knows about one back end. The balancer
/// keeps exactly one per back end: poll rounds, push scans and gossip
/// all write it, pick() reads it, and the scale-out plane publishes its
/// PeerRecord to peers.
struct BackendView {
  monitor::MonitorSample sample;  ///< last good sample (!ok before any)
  ViewSource source = ViewSource::Pull;  ///< path that produced `sample`
  BackendHealth health = BackendHealth::Healthy;
  int fail_streak = 0;
  int success_streak = 0;
  /// Instant of the latest evidence about the back end: every local
  /// resolution (poll outcome, consumed push, verification READ; ok or
  /// failed), or the owner's instant for a gossiped record. Staleness
  /// strikes do not move it.
  sim::TimePoint evidence_at{};
  /// Local resolutions so far: poll outcomes, consumed pushes and
  /// verification READs, ok or failed.
  std::uint64_t refreshes = 0;
};

/// The part of an owner's BackendView that a peer ingests (ingest_peer):
/// a fixed-size wire image, one per back end the scale-out plane's
/// shard view carries.
struct PeerRecord {
  int backend = -1;
  /// The owner holds the back end Healthy and has a good sample.
  bool usable = false;
  os::LoadSnapshot info;          ///< the owner's last good sample
  sim::TimePoint retrieved_at{};  ///< when the owner fetched `info`
  sim::TimePoint evidence_at{};   ///< BackendView::evidence_at
};
static_assert(std::is_trivially_copyable_v<PeerRecord>);
static_assert(sizeof(PeerRecord) <= 104);

/// Back end `backend`'s record as the owner of view `v` publishes it.
PeerRecord peer_record(int backend, const BackendView& v);

/// Refresh strategy of a push-capable balancer (enable_push).
struct PushPollConfig {
  monitor::MonitorStrategy strategy = monitor::MonitorStrategy::Pull;
};

/// One dispatch decision, kept in a bounded log: who was picked, on a
/// view of what age, refreshed via which path. 16 bytes, so one 512-byte
/// deque block holds 32 decisions.
struct DispatchRecord {
  /// now - the view's /proc sampling instant (the information age the
  /// decision was actually made on); -1ns when the winner had no view yet.
  sim::Duration view_age{-1};
  std::int32_t backend = -1;
  /// The winner's BackendView::source (a pull view's scheme is its back
  /// end's channel's); meaningless while view_age is negative.
  ViewSource via = ViewSource::Pull;
};
static_assert(sizeof(DispatchRecord) == 16);

/// Tracks the latest monitoring sample per back end and picks the least
/// loaded. A poller thread on the front-end node refreshes the samples
/// through the configured scheme, so the data is exactly as fresh (or
/// stale, or costly) as that scheme makes it. The poller sleeps
/// `granularity` between the end of one poll round and the start of the
/// next, the sleep's end rounded up to the scheduler tick, so a round
/// recurs every granularity plus the round's own time plus the rounding:
/// 1 ms over 512 RDMA-Sync back ends at a 1 us tick makes about 988
/// rounds per simulated s, not 1,000.
/// Every fetch in the round arms (and on success cancels) a deadline
/// timer; those land on the event queue's near-future wheel, so the
/// fine granularities the paper argues for (Fig 9) scale to hundreds of
/// back ends without the simulator's timer plumbing becoming the cost.
class LoadBalancer {
 public:
  explicit LoadBalancer(WeightConfig weights) : weights_(weights) {}
  ~LoadBalancer();

  /// Registers a back end via its monitoring channel.
  void add_backend(std::unique_ptr<monitor::MonitorChannel> channel);

  /// Verbs-layer tuning for the scatter engine's completion channel:
  /// cq_mod_count/period moderate consumer wakeups on the shared CQ (the
  /// signal-every-k and context-sharing halves live with the channels —
  /// see net::make_context_pool). Call before start(); the defaults keep
  /// the historical one-notify-per-completion behaviour.
  void set_verbs_tuning(net::VerbsTuning t) { verbs_ = t; }

  // --- push / adaptive strategy (monitor/inbox.hpp) ------------------------
  /// Enables the push-based refresh path: back end i's publisher targets
  /// slot i of `inbox` (which must have >= backends() slots and belong to
  /// the front-end node passed to start()). Push-mode back ends are
  /// refreshed by scanning their slot; a slot silent beyond
  /// kPushSilenceBound falls back to a verification READ through the
  /// back end's normal channel, and only that fetch's outcome drives the
  /// health ladder. Strategy Adaptive instantiates the per-backend
  /// controller at start(). Call after add_backend, before start();
  /// `inbox` must outlive the balancer.
  void enable_push(monitor::PushInbox& inbox, PushPollConfig cfg);

  /// Refresh mode of back end `i` this round (Pull when push is disabled
  /// or the adaptive controller says so).
  monitor::FetchMode fetch_mode(std::size_t i) const;

  /// Observer of adaptive mode switches (strategy Adaptive only; runs
  /// inside the poller). The wiring layer uses this to pause a back
  /// end's publisher while it is pull-mode and resume it on the way
  /// back. Call before start().
  void on_mode_change(std::function<void(std::size_t, monitor::FetchMode)> cb) {
    mode_cbs_.push_back(std::move(cb));
  }

  /// The adaptive controller (null unless strategy == Adaptive and
  /// start() has run).
  const monitor::AdaptiveController* adaptive() const {
    return adaptive_.get();
  }

  /// Verification READs triggered by inbox silence.
  std::uint64_t push_verifications() const { return push_verifications_; }

  // --- scale-out hooks (src/cluster) ---------------------------------------
  /// Restricts the poller to back ends the predicate accepts — the
  /// scale-out plane's shard ownership filter. Re-evaluated every round,
  /// so a ring rebalance takes effect at the next poll with no rewiring.
  /// Back ends filtered out keep their samples/health state; feed them
  /// through ingest_peer / note_stale instead. Call before start(),
  /// which resolves the "gossip" lineage histograms of a filtered
  /// balancer.
  void set_poll_filter(std::function<bool(std::size_t)> f) {
    poll_filter_ = std::move(f);
  }

  /// Observer invoked (inside the poller) after each round's samples have
  /// been applied, with the round's target indices.
  void on_round(std::function<void(const std::vector<std::size_t>&)> cb) {
    round_cbs_.push_back(std::move(cb));
  }

  /// Merges the record a peer owner published for its back end: a usable
  /// record's sample is applied as if this balancer had fetched it (only
  /// the local fetch-latency statistic is left untouched); an owner that
  /// observed failures mirrors one strike, so this detector converges
  /// toward the owner's verdict. Either way the record's evidence instant
  /// becomes the owner's.
  void ingest_peer(const PeerRecord& owner);

  /// Counts one staleness strike against back end `i`: nobody has shown
  /// this front end fresh evidence about it within the staleness bound,
  /// which is a monitoring failure exactly like a timed-out fetch. The
  /// evidence instant stays where it was.
  void note_stale(std::size_t i) { record_fetch(i, false); }

  /// Resets back end `i`'s failure detector to Healthy (zeroed streaks),
  /// firing health callbacks if the state changes. Used on shard
  /// takeover: the new owner starts with a clean detector so the
  /// dead-probe cadence cannot throttle its first polls.
  void reset_health(std::size_t i);

  /// Labels this balancer's telemetry instruments with {frontend=<name>}
  /// so M balancers sharing one registry stay distinguishable. Empty
  /// (default) keeps the historical unlabelled names. Call before start().
  void set_telemetry_instance(std::string name) {
    telemetry_instance_ = std::move(name);
  }

  /// Spawns the front-end poller thread. Call once after add_backend.
  void start(os::Node& frontend, sim::Duration granularity);

  /// Kills the poller and the inbox scanner in place: a hung monitoring
  /// process. The records keep their last content and evidence instants.
  void stall();

  /// Picks the next back end by smooth weighted round-robin over
  /// per-server weights w_i = max(floor, 1 - load_index_i), the WebSphere
  /// behaviour the paper references: servers reporting low load receive
  /// proportionally more requests; a server whose (fresh) index spikes is
  /// avoided almost entirely until it recovers. Stale indices keep
  /// feeding the hotspot — the failure mode fine-grained monitoring fixes.
  int pick();

  int backends() const { return static_cast<int>(channels_.size()); }
  /// Load index of back end `backend`'s current sample (0 before any
  /// good one: no data reads as idle), computed when the sample arrived.
  double index_of(int backend) const {
    return index_[static_cast<std::size_t>(backend)];
  }
  /// pick()'s smooth weighted round-robin credit of back end `backend`.
  double wrr_credit(int backend) const {
    return wrr_credit_[static_cast<std::size_t>(backend)];
  }
  const BackendView& view(int backend) const {
    return views_[static_cast<std::size_t>(backend)];
  }
  const monitor::MonitorSample& last_sample(int backend) const {
    return view(backend).sample;
  }

  // --- failure detection ---------------------------------------------------
  BackendHealth health_of(int backend) const { return view(backend).health; }
  /// Back ends currently in rotation (not Dead).
  int alive_backends() const { return alive_; }
  /// Total failed fetches seen by the poller.
  std::uint64_t fetch_failures() const { return fetch_failures_; }
  /// Registers an observer of health transitions (several may register;
  /// e.g. the dispatcher's failover hook). Runs inside the poller.
  void on_health_change(std::function<void(int, BackendHealth)> cb) {
    health_cbs_.push_back(std::move(cb));
  }

  /// Mean observed refresh latency (monitoring fetch) per back end.
  const sim::OnlineStats& fetch_latency_ns() const { return fetch_lat_; }

  // --- information-age lineage ---------------------------------------------
  /// Recent dispatch decisions, oldest first (bounded; see
  /// set_dispatch_log_capacity). Every pick() appends one record once
  /// start() has bound a clock.
  const std::deque<DispatchRecord>& dispatch_log() const {
    return dispatch_log_;
  }
  void set_dispatch_log_capacity(std::size_t cap) {
    dispatch_log_cap_ = cap;
    while (dispatch_log_.size() > dispatch_log_cap_) {
      dispatch_log_.pop_front();
    }
  }

  /// Age of back end `i`'s current view (now - its /proc sampling
  /// instant), or a negative duration when no view exists yet. This is
  /// what the "lb.view_age" SLO probe reports the worst case of.
  sim::Duration view_age(std::size_t i) const;

 private:
  /// Lineage instruments of one source label, resolved at start().
  struct LineageCell {
    telemetry::HistogramMetric* consume = nullptr;
    telemetry::HistogramMetric* dispatch = nullptr;
  };
  /// One cell per pull scheme, then "push" and "gossip".
  static constexpr std::size_t kLineageCells = monitor::kAllSchemes.size() + 2;
  /// The lineage cell of a sample of back end `i` from `src`.
  LineageCell& lineage_of(std::size_t i, ViewSource src);
  const char* source_label(std::size_t i, ViewSource src) const;

  os::Program poller_body(os::SimThread& self, sim::Duration granularity);
  /// Push-strategy pre-pass of one round: scans the inbox slots of
  /// push-mode targets, applies Fresh images, and rewrites `targets` to
  /// the subset still needing a wire fetch (pull-mode + silence
  /// verifications). Returns the number of slots scanned (CPU cost is
  /// charged by the caller).
  std::size_t push_prepass(std::vector<std::size_t>& targets,
                           sim::TimePoint now);
  /// Dedicated inbox scanner: sweeps every push-mode slot far more often
  /// than the wire polls run, so pushed changes reach the view at
  /// memory-read latency. Verification and the failure ladder stay with
  /// the per-round pre-pass.
  os::Program scanner_body(os::SimThread& self);
  /// Consumes one Fresh scan result: counters, adaptive evidence,
  /// telemetry, then apply_sample. Shared by pre-pass and scanner.
  void consume_push_fresh(std::size_t i, const monitor::MonitorSample& s,
                          bool heartbeat);
  void record_fetch(std::size_t i, bool ok);
  /// Bookkeeping of back end `i`'s health leaving `before`: the alive
  /// count, the transition counter, a `kind` ring record and the
  /// observers.
  void health_edge(std::size_t i, BackendHealth before, const char* kind);
  /// Applies one resolution of back end `i`: drives the ladder, keeps an
  /// ok sample, and (for a local source) stamps the evidence instant.
  void apply_sample(std::size_t i, const monitor::MonitorSample& s,
                    ViewSource src);
  /// Fills poll_targets_ with the targets of poll round `round`: every
  /// live back end, plus the Dead ones on the dead-probe cadence.
  void fill_poll_targets(std::uint64_t round);

  WeightConfig weights_;
  net::VerbsTuning verbs_;  ///< CQ moderation for the scatter channel
  std::function<bool(std::size_t)> poll_filter_;  ///< shard ownership
  std::vector<std::function<void(const std::vector<std::size_t>&)>>
      round_cbs_;
  std::string telemetry_instance_;  ///< "" = unlabelled instruments
  os::SimThread* poller_thread_ = nullptr;
  os::SimThread* scanner_thread_ = nullptr;
  std::vector<std::unique_ptr<monitor::MonitorChannel>> channels_;
  std::vector<BackendView> views_;  ///< one record per back end
  // pick()'s per-back-end inputs, dense: the load index of the view's
  // sample (written only by apply_sample) and the smooth-WRR credit.
  std::vector<double> index_;
  std::vector<double> wrr_credit_;
  int alive_ = 0;  ///< back ends not Dead, kept on health edges
  std::vector<std::function<void(int, BackendHealth)>> health_cbs_;
  std::uint64_t fetch_failures_ = 0;
  sim::OnlineStats fetch_lat_;
  monitor::ScatterFetcher scatter_;  ///< joined at start()
  std::vector<monitor::MonitorSample> round_buf_;
  /// The current poll round's targets; a member so rounds reuse its
  /// capacity.
  std::vector<std::size_t> poll_targets_;
  // Push / adaptive strategy state (enable_push).
  monitor::PushInbox* push_inbox_ = nullptr;  ///< not owned
  monitor::MonitorStrategy strategy_ = monitor::MonitorStrategy::Pull;
  std::unique_ptr<monitor::AdaptiveController> adaptive_;
  std::vector<std::function<void(std::size_t, monitor::FetchMode)>> mode_cbs_;
  std::uint64_t push_verifications_ = 0;
  // Information-age lineage (tentpole of the freshness plane): per-
  // source age histograms, the dispatch ring, and the SLO streams fed
  // from pick(). The SloEngine (when one is installed on the registry)
  // must outlive this balancer — its probe is removed in the destructor.
  sim::Simulation* simu_ = nullptr;  ///< bound at start(); the view clock
  std::array<LineageCell, kLineageCells> lineage_{};
  std::deque<DispatchRecord> dispatch_log_;
  std::size_t dispatch_log_cap_ = 256;
  telemetry::SloEngine* slo_ = nullptr;
  telemetry::SloEngine::Stream* s_view_age_ = nullptr;
  std::uint64_t slo_probe_ = 0;  ///< the view-age probe's id (0 = none)
  telemetry::FlightRing* fr_ = nullptr;  ///< "lb" ring: health + mode edges
  // Telemetry instruments, resolved in start() (null when disabled / no
  // registry installed on the front end's simulation).
  telemetry::Registry* reg_ = nullptr;
  std::vector<telemetry::Counter*> m_pick_;  ///< per-backend dispatch counts
  telemetry::HistogramMetric* m_pick_weight_ = nullptr;
  telemetry::Counter* m_to_healthy_ = nullptr;
  telemetry::Counter* m_to_suspect_ = nullptr;
  telemetry::Counter* m_to_dead_ = nullptr;
  telemetry::Counter* m_push_fresh_ = nullptr;
  telemetry::Counter* m_push_verify_ = nullptr;
  telemetry::HistogramMetric* m_push_staleness_ = nullptr;
  telemetry::ScopedCollector collector_;  ///< alive count + failure total
};

}  // namespace rdmamon::lb
