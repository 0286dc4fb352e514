// Strongly-typed simulated time. The whole simulator runs on a 64-bit
// nanosecond clock; nothing ever reads the wall clock, so runs are
// reproducible bit-for-bit given the same seed.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace rdmamon::sim {

/// A span of simulated time in nanoseconds. Arithmetic is saturating-free
/// plain int64: experiments never get near the ~292-year range.
struct Duration {
  std::int64_t ns = 0;

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration operator+(Duration o) const { return {ns + o.ns}; }
  constexpr Duration operator-(Duration o) const { return {ns - o.ns}; }
  constexpr Duration operator*(std::int64_t k) const { return {ns * k}; }
  constexpr Duration operator/(std::int64_t k) const { return {ns / k}; }
  constexpr Duration& operator+=(Duration o) {
    ns += o.ns;
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    ns -= o.ns;
    return *this;
  }

  constexpr double seconds() const { return static_cast<double>(ns) / 1e9; }
  constexpr double millis() const { return static_cast<double>(ns) / 1e6; }
  constexpr double micros() const { return static_cast<double>(ns) / 1e3; }
};

/// An absolute instant on the simulated clock (ns since simulation start).
struct TimePoint {
  std::int64_t ns = 0;

  constexpr auto operator<=>(const TimePoint&) const = default;

  constexpr TimePoint operator+(Duration d) const { return {ns + d.ns}; }
  constexpr TimePoint operator-(Duration d) const { return {ns - d.ns}; }
  constexpr Duration operator-(TimePoint o) const { return {ns - o.ns}; }
  constexpr TimePoint& operator+=(Duration d) {
    ns += d.ns;
    return *this;
  }

  constexpr double seconds() const { return static_cast<double>(ns) / 1e9; }
  constexpr double millis() const { return static_cast<double>(ns) / 1e6; }
};

/// The instant no clock reaches: an unbounded deadline.
inline constexpr TimePoint kNever{std::numeric_limits<std::int64_t>::max()};

/// Duration factories. `sim::msec(50)` reads like the paper's "T = 50 ms".
constexpr Duration nsec(std::int64_t v) { return {v}; }
constexpr Duration usec(std::int64_t v) { return {v * 1'000}; }
constexpr Duration msec(std::int64_t v) { return {v * 1'000'000}; }
constexpr Duration seconds(std::int64_t v) { return {v * 1'000'000'000}; }

/// Builds a Duration from fractional seconds / milliseconds.
constexpr Duration from_seconds(double s) {
  return {static_cast<std::int64_t>(s * 1e9)};
}
constexpr Duration from_millis(double ms) {
  return {static_cast<std::int64_t>(ms * 1e6)};
}

/// Human-readable rendering ("12.5ms"); defined in terms of util formatting.
std::string to_string(Duration d);
std::string to_string(TimePoint t);

}  // namespace rdmamon::sim
