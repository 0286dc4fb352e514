// A move-only run of bytes: what a one-sided READ copied out of a
// registered region. Up to kInline bytes are held in the block itself; a
// longer run is one heap allocation, made when the bytes are copied in and
// freed when the block is destroyed.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace rdmamon::sim {

class ByteBlock {
 public:
  static constexpr std::size_t kInline = 8;

  ByteBlock() noexcept = default;
  /// Copies `n` bytes from `src`.
  ByteBlock(const void* src, std::size_t n) : n_(n) {
    if (n > kInline) heap_ = std::make_unique_for_overwrite<std::byte[]>(n);
    if (n > 0) std::memcpy(buf(), src, n);
  }
  ByteBlock(ByteBlock&& o) noexcept { take(o); }
  ByteBlock& operator=(ByteBlock&& o) noexcept {
    if (this != &o) take(o);
    return *this;
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  const std::byte* data() const { return heap_ ? heap_.get() : inline_; }

  /// The T stored at byte `offset`. Size-checked: throws
  /// std::length_error when the block holds fewer than offset +
  /// sizeof(T) bytes.
  template <typename T>
  T as(std::size_t offset = 0) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "a ByteBlock holds plain bytes");
    if (offset > n_ || n_ - offset < sizeof(T)) {
      throw std::length_error("ByteBlock holds " + std::to_string(n_) +
                              " bytes, read needs " +
                              std::to_string(offset + sizeof(T)));
    }
    T v;
    std::memcpy(&v, data() + offset, sizeof(T));
    return v;
  }

 private:
  std::byte* buf() { return heap_ ? heap_.get() : inline_; }
  void take(ByteBlock& o) noexcept {
    heap_ = std::move(o.heap_);
    n_ = std::exchange(o.n_, 0);
    if (!heap_) std::memcpy(inline_, o.inline_, n_);
  }

  std::unique_ptr<std::byte[]> heap_;
  std::size_t n_ = 0;
  alignas(8) std::byte inline_[kInline];
};

}  // namespace rdmamon::sim
