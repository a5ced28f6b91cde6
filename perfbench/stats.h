#pragma once
// Order statistics and run-context probes of the wall-clock benchmark.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}
/// Geometric mean of positive values; 0 when empty or any value is <= 0.
[[nodiscard]] double geomean(const std::vector<double>& xs);
[[nodiscard]] double mean(const std::vector<double>& xs);
[[nodiscard]] double sum(const std::vector<double>& xs);

/// 1-minute load average from /proc/loadavg; -1 when unreadable.
[[nodiscard]] double load_average();
/// Cumulative steal ticks over all CPUs from /proc/stat; 0 when absent.
[[nodiscard]] std::uint64_t steal_ticks();
/// CPU time this process has used so far, every thread counted, in
/// milliseconds.  Time the host steals from the guest is not included.
[[nodiscard]] double process_cpu_ms();
/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
