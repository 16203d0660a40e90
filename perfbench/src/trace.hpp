// In-memory span recorder for the traced run. A span is opened around a
// call into one library layer (or around a whole pass over a stage); it
// records name, category, start, duration, thread and the span that was
// open on the same thread when it started (its parent). Nothing is written
// until the run ends: write_chrome() emits Chrome trace-event JSON
// (loadable in chrome://tracing), and layer_times() folds the spans into
// per-name total and self time (duration minus the time covered by child
// spans).
//
// With tracing off a Span still measures its own duration (the untraced
// run times whole passes with it) but records nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name = "";
    const char* category = "";
    std::int64_t start_ns = 0;
    std::int64_t duration_ns = 0;
    std::uint32_t thread = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = top level
  };

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  class Span {
   public:
    Span(Tracer& tracer, const char* name, const char* category);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { (void)stop(); }

    /// Closes the span (once) and returns its duration in seconds.
    double stop();

   private:
    Tracer* tracer_;
    const char* name_;
    const char* category_;
    Clock::time_point start_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    double elapsed_s_ = -1.0;
  };

  /// Spans recorded so far (all threads) and spans dropped at the
  /// per-thread cap.
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Writes every recorded span as Chrome trace-event JSON ("X" events,
  /// microsecond timestamps). Returns false when the file cannot be
  /// written.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<Record> records;
    std::vector<std::uint64_t> open;  ///< ids of spans open on the thread
    std::uint64_t dropped = 0;
  };
  static constexpr std::size_t kMaxSpansPerThread = 250000;

  ThreadBuffer& buffer();

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace perfbench
