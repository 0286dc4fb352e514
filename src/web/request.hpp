// Request/reply envelopes exchanged between clients, the front-end
// dispatcher and the back-end web servers. Both travel as socket payload
// images (net::Payload), so both are trivially copyable and fit one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "net/message.hpp"
#include "sim/time.hpp"

namespace rdmamon::web {

/// Service demand of one request at a back end, executed as:
/// CPU burst (PHP) -> CPU burst (MySQL) -> I/O wait (no CPU) -> reply.
/// Static content uses cpu_php for the serve cost and io_wait for disk.
struct ServiceDemand {
  sim::Duration cpu_php{};
  sim::Duration cpu_db{};
  sim::Duration io_wait{};
  std::size_t reply_bytes = 1024;
};

/// One client request flowing through dispatcher and back end.
struct Request {
  std::uint64_t id = 0;
  /// Workload class for per-class metrics: RUBiS query index (0..7), or
  /// kStaticClass for Zipf static content.
  int query_class = 0;
  bool is_static = false;
  ServiceDemand demand;
  std::size_t request_bytes = 512;
  sim::TimePoint created_at{};
};
static_assert(std::is_trivially_copyable_v<Request> &&
              sizeof(Request) <= net::Payload::kCapacity);

/// Per-class metric slot used for Zipf static requests.
inline constexpr int kStaticClass = 100;

/// Reply envelope (routed back through the dispatcher).
struct Reply {
  std::uint64_t id = 0;
  int query_class = 0;
  bool rejected = false;  ///< admission control turned the request away
};
static_assert(std::is_trivially_copyable_v<Reply> &&
              sizeof(Reply) <= net::Payload::kCapacity);

}  // namespace rdmamon::web
