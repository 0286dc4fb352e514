// Ring-buffer FIFO for the simulator's hot queues (IRQ jobs, run queues,
// wait queues, socket receive queues, completion queues). libstdc++'s
// std::deque allocates a 512-byte node plus its map even while empty and
// frees one node and allocates another every few elements of FIFO
// traffic; Fifo allocates nothing until the first push, grows by
// doubling, and once it has seen its peak occupancy never allocates
// again.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace rdmamon::sim {

template <typename T>
class Fifo {
 public:
  Fifo() noexcept = default;
  Fifo(Fifo&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        cap_(std::exchange(o.cap_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  Fifo& operator=(Fifo&& o) noexcept {
    if (this != &o) {
      release();
      buf_ = std::exchange(o.buf_, nullptr);
      cap_ = std::exchange(o.cap_, 0);
      head_ = std::exchange(o.head_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() { release(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The i-th element counting from the front.
  T& operator[](std::size_t i) { return *at(i); }
  const T& operator[](std::size_t i) const { return *at(i); }
  T& front() { return *at(0); }

  void push_back(T v) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(buf_ + ((head_ + size_) & (cap_ - 1))))
        T(std::move(v));
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    at(0)->~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }
  /// Moves the front element out and pops it.
  T take_front() {
    T v = std::move(front());
    pop_front();
    return v;
  }

  /// Removes the i-th element; the others keep their order. Moves the
  /// shorter side, so erasing at either end is O(1) (consumers that match
  /// by id mostly find the front element).
  void erase(std::size_t i) {
    assert(i < size_);
    if (i < size_ / 2) {
      for (; i > 0; --i) *at(i) = std::move(*at(i - 1));
      pop_front();
      return;
    }
    for (; i + 1 < size_; ++i) *at(i) = std::move(*at(i + 1));
    at(size_ - 1)->~T();
    --size_;
  }

  /// Destroys every element; keeps the buffer for reuse.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 4;

  T* at(std::size_t i) const {
    assert(i < size_);
    return std::launder(buf_ + ((head_ + i) & (cap_ - 1)));
  }

  void grow() {
    const std::size_t cap = cap_ == 0 ? kInitialCapacity : cap_ * 2;
    T* buf = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(buf + i)) T(std::move(*at(i)));
      at(i)->~T();
    }
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  void release() {
    clear();
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
    buf_ = nullptr;
    cap_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;  ///< 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rdmamon::sim
