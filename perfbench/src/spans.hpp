// Host-time spans recorded by the benchmark around its calls into each
// layer of the stack.
//
// Every span adds to a per-name accumulator (calls, inclusive time, self
// time).  A span's self time is its duration minus the durations of the
// spans nested directly inside it, so the self times of all names add
// up exactly to the duration of the outermost span.  Full span records
// (name, start, end, parent, packet seq) are kept only for packets whose
// seq is a multiple of the sample period N, 1-in-N of the seq-less
// spans and every span at the top two levels, up to a fixed cap, so
// memory stays bounded on multi-million-packet runs.
//
// Spans read the CPU timestamp counter (about half the cost of
// steady_clock on a VM) and convert to ns with a rate calibrated
// against steady_clock over the recording.  While the recorder is
// inactive, which is how every untraced (end-to-end) run executes, a
// span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

inline constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

class SpanRecorder {
 public:
  struct Totals {
    std::string name;
    std::uint64_t calls = 0;
    std::int64_t inclusive_ticks = 0;
    std::int64_t self_ticks = 0;
  };
  struct Record {
    std::uint32_t name = 0;
    std::int64_t start_ticks = 0;
    std::int64_t end_ticks = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = no enclosing span
    std::uint64_t seq = kNoSeq;
  };

  /// Drops earlier totals and records, sets the sampling policy and
  /// starts the clock calibration; recording starts with
  /// set_active(true).
  void reset(std::uint64_t sample_every, std::size_t max_records);
  /// Pauses or resumes recording without dropping what was recorded.
  /// Pausing also fixes the tick-to-ns rate reported until the next
  /// resume.
  void set_active(bool active);

  /// Interns a span name; the returned id is what begin() takes.
  std::uint32_t intern(std::string_view name);

  void begin(std::uint32_t name, std::uint64_t seq) {
    if (enabled_) push(name, seq);
  }
  void end() {
    if (enabled_) pop();
  }
  /// Sets the packet seq of the innermost open span (for calls whose
  /// packet is known only once they return).
  void set_seq(std::uint64_t seq) {
    if (enabled_ && !stack_.empty()) stack_.back().seq = seq;
  }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::uint64_t records_dropped() const { return dropped_; }

  /// Inclusive ns of `name` (0 when never recorded).
  [[nodiscard]] double inclusive_ns(std::string_view name) const;
  /// Self ns summed over every name whose layer (text before the first
  /// '.') is `layer`.
  [[nodiscard]] double layer_self_ns(std::string_view layer) const;

  /// Writes the sampled records as JSON lines (times in ns since
  /// reset()).  Returns false on I/O failure.
  bool write_records(const std::string& path) const;

 private:
  struct Frame {
    std::uint32_t name;
    std::int64_t start;
    std::int64_t child;
    std::uint64_t id;
    std::uint64_t seq;
  };

  static std::int64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
    return static_cast<std::int64_t>(__rdtsc());
#else
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
#endif
  }
  /// ns per tick over [reset(), last pause], or [reset(), now] while
  /// recording.
  [[nodiscard]] double ns_per_tick() const;
  void push(std::uint32_t name, std::uint64_t seq);
  void pop();

  bool enabled_ = false;
  std::uint64_t sample_every_ = 1;
  std::size_t max_records_ = 0;
  std::int64_t origin_ticks_ = 0;
  std::chrono::steady_clock::time_point origin_time_{};
  std::int64_t paused_ticks_ = 0;
  std::chrono::steady_clock::time_point paused_time_{};
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<Frame> stack_;
  std::vector<Totals> totals_;
  std::vector<Record> records_;
};

/// The process-wide recorder the decorators and workloads report to.
inline SpanRecorder g_spans;
inline SpanRecorder& spans() { return g_spans; }

/// RAII span on the process-wide recorder.
class Span {
 public:
  explicit Span(std::uint32_t name, std::uint64_t seq = kNoSeq) {
    spans().begin(name, seq);
  }
  ~Span() { spans().end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace perfbench
