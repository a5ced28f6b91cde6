#pragma once
// Event sinks for simulated-time event streams.
//
// A simnet::SimMachine (and the executors and profiler that drive one)
// hands each machine-level event to the Sink it was given; MemorySink
// buffers them and ChromeTraceSink (chrome_trace.h) exports them.  There
// is no process-wide sink: wall-clock telemetry of thread runs lives in
// the per-rank rt flight recorders (colop/rt/flight_recorder.h).
//
// Sinks here serialize with a mutex, so one sink may be shared by
// producers on several threads.

#include <cstddef>
#include <mutex>
#include <vector>

#include "colop/obs/event.h"

namespace colop::obs {

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void record(const Event& event) = 0;
};

/// Unbounded in-memory sink; events() snapshots under the lock.
class MemorySink : public Sink {
 public:
  void record(const Event& event) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(event);
  }
  [[nodiscard]] std::vector<Event> events() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

}  // namespace colop::obs
