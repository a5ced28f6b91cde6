#pragma once
// Traffic statistics for a process group.  Used by tests and benchmarks to
// demonstrate the communication savings of the optimization rules (the
// rules trade messages for local arithmetic, so message/byte counts are the
// direct observable).
//
// Counters are sharded per rank: every rank owns a cache-line-aligned slot
// (rt::RankStats) it updates with relaxed atomics, so p concurrently
// communicating threads never contend on one cache line and no increment
// can be lost (the regression tests pin exact counts under concurrent
// collectives).  snapshot() sums the shards; per-rank snapshots give the
// attribution the observability layer exports.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "colop/rt/flight_recorder.h"

namespace colop::mpsim {

/// A snapshot of traffic counters.
struct TrafficCounters {
  std::uint64_t messages = 0;  ///< point-to-point messages sent
  std::uint64_t bytes = 0;     ///< accounted payload bytes sent

  friend TrafficCounters operator-(TrafficCounters a, TrafficCounters b) {
    return {a.messages - b.messages, a.bytes - b.bytes};
  }
  friend TrafficCounters operator+(TrafficCounters a, TrafficCounters b) {
    return {a.messages + b.messages, a.bytes + b.bytes};
  }
  friend bool operator==(const TrafficCounters&, const TrafficCounters&) = default;
};

/// A group's per-rank traffic counters.  The storage is the rt::Fleet's
/// RankStats slots (sends, send_bytes): Comm::send_raw counts each message
/// there once, recorder on or off, and this view sums them.
class TrafficStats {
 public:
  explicit TrafficStats(rt::Fleet& fleet) noexcept : fleet_(&fleet) {}

  /// Count one message from `rank`; out-of-range ranks fall back to the
  /// fleet's shard 0 so the aggregate is never lost.
  void record_send(int rank, std::size_t bytes) noexcept {
    rt::RankStats& s = *fleet_->stats(rank);
    s.sends.fetch_add(1, std::memory_order_relaxed);
    s.send_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] int ranks() const noexcept { return fleet_->ranks(); }

  /// Aggregate over all ranks.
  [[nodiscard]] TrafficCounters snapshot() const noexcept {
    TrafficCounters total;
    for (int r = 0; r < ranks(); ++r) total = total + snapshot(r);
    return total;
  }

  /// One sending rank's share.
  [[nodiscard]] TrafficCounters snapshot(int rank) const noexcept {
    const rt::RankStats& s = *fleet_->stats(rank);
    return {s.sends.load(std::memory_order_relaxed),
            s.send_bytes.load(std::memory_order_relaxed)};
  }

  void reset() noexcept {
    for (int r = 0; r < ranks(); ++r) {
      fleet_->stats(r)->sends.store(0, std::memory_order_relaxed);
      fleet_->stats(r)->send_bytes.store(0, std::memory_order_relaxed);
    }
  }

 private:
  rt::Fleet* fleet_;
};

}  // namespace colop::mpsim
