// Wire messages for the two-sided (socket) transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "sim/slot_table.hpp"

namespace rdmamon::net {

/// A socket message's application data: the bytes of one trivially
/// copyable value (a web::Request or Reply, an os::LoadSnapshot, a
/// ganglia::MetricPacket), held inline, so carrying one allocates
/// nothing. kCapacity is sizeof(os::LoadSnapshot), the largest type any
/// socket carries. Storing a type that is not trivially copyable or does
/// not fit fails to compile; a default-constructed payload is empty.
class Payload {
 public:
  static constexpr std::size_t kCapacity = 80;

  Payload() = default;
  /// Copies the bytes of `v`. Implicit, so a send names its value.
  template <typename T>
  Payload(const T& v) : n_(sizeof(T)) {  // NOLINT(google-explicit-constructor)
    static_assert(std::is_trivially_copyable_v<T>,
                  "a socket payload is plain bytes");
    static_assert(sizeof(T) <= kCapacity, "the type exceeds a socket payload");
    std::memcpy(bytes_, &v, sizeof(T));
  }

  std::size_t size() const { return n_; }

  /// The value stored. Size-checked as sim::ByteBlock::as is, but exact: a
  /// payload holds one value, so it throws std::length_error unless it
  /// holds sizeof(T) bytes (reading a type the sender did not store is
  /// caught whenever the two sizes differ).
  template <typename T>
  T as() const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "a socket payload is plain bytes");
    if (n_ != sizeof(T)) {
      throw std::length_error("socket payload holds " + std::to_string(n_) +
                              " bytes, read needs " +
                              std::to_string(sizeof(T)));
    }
    T v;
    std::memcpy(&v, bytes_, sizeof(T));
    return v;
  }

 private:
  alignas(8) std::byte bytes_[kCapacity];
  std::uint8_t n_ = 0;
  static_assert(kCapacity <= 0xff, "n_ counts the stored bytes");
};

/// A datagram-ish unit travelling the fabric. `payload` carries the
/// application value; `bytes` is its size on the wire, what the timing,
/// bandwidth and copy-cost models use (as `wr.len` is on the one-sided
/// path).
struct Message {
  int src_node = -1;
  int dst_node = -1;
  std::uint64_t conn = 0;  ///< connection id (assigned by the Fabric)
  int dst_side = 0;        ///< receiving endpoint within the connection
  std::size_t bytes = 0;
  Payload payload;
};

/// A socket message parked in the Fabric's packet table (Fabric::park).
using PacketSlot = sim::SlotTable<Message>::Slot;

}  // namespace rdmamon::net
