#pragma once
// Chrome trace-event export: turn any obs event stream into a JSON file
// loadable in chrome://tracing or https://ui.perfetto.dev.
//
// The exporter emits the stable subset of the trace-event format:
//   B/E  span begin/end        (obs::Phase::begin / end)
//   X    complete span + dur   (obs::Phase::complete)
//   i    instant               (obs::Phase::instant)
//   C    counter               (obs::Phase::counter)
// plus process/thread-name metadata ("M") so ranks show up as named rows.
// Timestamps pass through unscaled: wall-clock sources already record
// microseconds (Chrome's native unit); simulated sources record op units,
// which Perfetto renders proportionally — only relative lengths matter.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "colop/obs/sink.h"

namespace colop::obs {

/// Write `events` as one complete Chrome trace-event JSON document.
/// `process_name` labels every process row (override individual pids via
/// `pid_names`); `tid_prefix` names each thread row ("P0", "P1", ... by
/// default), and every thread gets a `thread_sort_index` so ranks order
/// numerically in Perfetto.
void write_chrome_trace(const std::vector<Event>& events, std::ostream& os,
                        const std::string& process_name = "colop",
                        const std::string& tid_prefix = "P",
                        const std::map<int, std::string>& pid_names = {});

/// Sink that buffers events and writes the trace JSON on write().
class ChromeTraceSink : public Sink {
 public:
  /// Events accumulate in memory; call write() to emit the document.
  explicit ChromeTraceSink(std::string process_name = "colop")
      : process_name_(std::move(process_name)) {}

  void record(const Event& event) override { buffer_.record(event); }

  /// Write the buffered events as a complete JSON document.
  void write(std::ostream& os) const {
    write_chrome_trace(buffer_.events(), os, process_name_);
  }

  [[nodiscard]] std::vector<Event> events() const { return buffer_.events(); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  std::string process_name_;
  MemorySink buffer_;
};

}  // namespace colop::obs
