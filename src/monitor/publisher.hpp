// Publishing a struct into a registered memory region: the paper's
// RDMA-Async back-end scheme, reused wherever the monitoring plane makes
// its OWN state readable by one-sided READ. A publisher thread on the
// owner node charges `publish_cost`, copies a producer's value into the
// region's slot, and sleeps `period`; a remote READ samples the slot at
// the DMA instant, so readers see the last PUBLISHED value (that
// asynchrony is the scheme's defining trade-off) at zero owner CPU —
// even when the owner's host is saturated or its kernel is frozen.
//
// The published value is a trivially copyable image — the region holds
// plain bytes. Two producers ship with the plane:
//
//  - telemetry self-publishing: a fixed-capacity image of the front
//    end's registry snapshot (snapshot_producer), so any node can read
//    the monitor's own health;
//  - alarm publishing: the SLO engine's AlarmView, republished on every
//    alarm edge as well, so "is that front end's view stale?" is itself a
//    one-sided READ:
//
//      monitor::MrPublisher<telemetry::AlarmView> alarms(
//          fabric, fe, [&slo] { return slo.view(); },
//          monitor::kAlarmPublish);
//      slo.on_edge([&alarms](const telemetry::AlarmRecord&) {
//        alarms.publish_now();
//      });
//
//    (the hook refers to the publisher: remove it with
//    SloEngine::remove_on_edge if the engine evaluates past the
//    publisher's lifetime).
//
// Readers on other nodes:
//
//   net::QueuePair qp{fabric.nic(reader.id), pub.node_id(), cq};
//   co_await net::rdma_sync(
//       self, qp, {.rkey = pub.mr_key(), .len = pub.config().slot_bytes}, c);
//   const T value = c.data.as<T>();
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "os/thread.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::monitor {

struct PublisherConfig {
  /// Publisher refresh period (the scheme's T).
  sim::Duration period = sim::msec(50);
  /// Wire size of the published value: remote READs of the region are
  /// charged for this many bytes (they copy the whole image).
  std::size_t slot_bytes = 4096;
  /// CPU charged per periodic publish (producing the value + the copy
  /// into the registered buffer). The telemetry plane itself never
  /// charges simulated time; the PUBLISHER is a real thread doing real
  /// work, like any RDMA-Async back-end calc thread.
  sim::Duration publish_cost = sim::usec(5);
};

/// Settings for an AlarmView publisher: a small region, a cheap build.
inline constexpr PublisherConfig kAlarmPublish{sim::msec(50), 512,
                                               sim::usec(2)};

/// Publishes `produce()` through a registered MR on `owner`'s NIC.
template <typename T>
class MrPublisher {
  static_assert(std::is_trivially_copyable_v<T>,
                "a registered region holds plain bytes");

 public:
  MrPublisher(net::Fabric& fabric, os::Node& owner, std::function<T()> produce,
              PublisherConfig cfg = {})
      : owner_(&owner), produce_(std::move(produce)), cfg_(cfg) {
    mr_key_ = fabric.nic(owner.id).register_mr(net::bytes_of(slot_));
    publisher_ = owner.spawn("mr-pub", [this](os::SimThread& t) {
      return publisher_body(t);
    });
  }
  ~MrPublisher() { stop(); }

  MrPublisher(const MrPublisher&) = delete;
  MrPublisher& operator=(const MrPublisher&) = delete;

  /// The rkey remote readers target.
  net::MrKey mr_key() const { return mr_key_; }
  /// The node whose NIC serves the region.
  int node_id() const { return owner_->id; }
  const PublisherConfig& config() const { return cfg_; }

  /// Publishes so far (periodic + publish_now).
  std::uint64_t published() const { return published_; }
  /// The value currently in the registered region (what a remote READ
  /// arriving now would sample).
  const T& latest() const { return slot_; }

  /// Out-of-band refresh, e.g. from an SLO edge hook. Runs in event
  /// context with no thread to charge, so the copy is uncharged — such
  /// triggers are rare by construction and the periodic publisher still
  /// pays the modelled cost for the steady state.
  void publish_now() {
    slot_ = produce_();
    ++published_;
  }

  /// Kills the publisher thread (the region keeps serving its last
  /// contents — the frozen-host regime).
  void stop() {
    if (publisher_ != nullptr) owner_->sched().kill(publisher_);
    publisher_ = nullptr;
  }

 private:
  os::Program publisher_body(os::SimThread& self) {
    for (;;) {
      co_await os::Compute{cfg_.publish_cost};
      publish_now();
      co_await os::SleepFor{cfg_.period};
    }
    (void)self;
  }

  os::Node* owner_;
  std::function<T()> produce_;
  PublisherConfig cfg_;
  T slot_{};  ///< the registered region's logical content
  net::MrKey mr_key_{};
  std::uint64_t published_ = 0;
  os::SimThread* publisher_ = nullptr;
};

/// Producer for publishing a registry through itself: each call takes a
/// snapshot, then counts the publish in "meta.published" — so from the
/// second publish on, readers see the publisher's own refresh count.
inline std::function<telemetry::SnapshotImage()> snapshot_producer(
    telemetry::Registry& reg) {
  return [&reg] {
    const telemetry::SnapshotImage image(reg.snapshot());
    reg.counter("meta.published").inc();
    return image;
  };
}

}  // namespace rdmamon::monitor
