#ifndef PAYG_COMMON_STOPWATCH_H_
#define PAYG_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace payg {

// Monotonic wall-clock stopwatch used by benchmarks and the resource
// manager's LRU clock.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  double ElapsedMicros() const { return ElapsedNanos() / 1e3; }
  double ElapsedMillis() const { return ElapsedNanos() / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// A monotonically increasing logical timestamp, cheap enough for per-touch
// LRU bookkeeping.
uint64_t MonotonicNanos();

// Busy-waits for `micros` microseconds. Used to simulate sub-millisecond
// device latencies precisely; OS sleep primitives round small sleeps up to
// scheduler granularity (50µs+), which would distort the simulation.
void SpinWaitMicros(uint64_t micros);

}  // namespace payg

#endif  // PAYG_COMMON_STOPWATCH_H_
