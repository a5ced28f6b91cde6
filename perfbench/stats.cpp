#include "stats.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double log_sum = 0;
  for (double x : xs) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double sum(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0 : sum(xs) / static_cast<double>(xs.size());
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double load = -1;
  in >> load;
  return in ? load : -1;
}

std::uint64_t steal_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return 0;
  std::istringstream fields(line.substr(4));
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i)
    if (!(fields >> value)) return 0;
  return value;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
