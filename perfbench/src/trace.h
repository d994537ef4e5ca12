#pragma once

// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark around calls into the library's public functions (never
// inside the library), kept in memory, and written once at the end as a
// Chrome trace-event file that Perfetto and chrome://tracing open directly.
//
// Every span names the src/ module (layer) its call belongs to. Spans on the
// main thread nest through a thread-local stack; spans on helper threads
// (fleet workers, serve clients) name their parent explicitly and are marked
// `concurrent`: they run beside their parent's own work, so the self-time
// ledger (perfbench/ledger.py) shows them but does not subtract them.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t tid = 0;
  bool concurrent = false;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  [[nodiscard]] std::uint64_t next_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_id_;
  }

  void add(SpanRecord span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  [[nodiscard]] std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::uint64_t last_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// The process-wide tracer; nullptr while tracing is off, which makes every
/// Span a no-op (the untraced runs pay one branch per span).
extern Tracer* g_tracer;

/// RAII span. On the main thread, nests under the innermost open span. A
/// helper thread passes its parent id and gets `concurrent` set.
class Span {
 public:
  Span(const char* layer, std::string name);
  Span(const char* layer, std::string name, std::uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Id of this span (0 when tracing is off) — the parent for helper threads.
  [[nodiscard]] std::uint64_t id() const { return record_.id; }
  /// Seconds since the span opened (valid whether or not tracing is on).
  [[nodiscard]] double seconds() const;

 private:
  SpanRecord record_;
  std::chrono::steady_clock::time_point start_;
  bool on_stack_ = false;
};

}  // namespace perfbench
