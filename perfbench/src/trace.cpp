#include "trace.hpp"

#include <fstream>

namespace perfbench {

namespace {

// One tracer per process is the supported shape; the thread-local cache
// remembers which tracer its buffer belongs to.
thread_local const void* tls_owner = nullptr;
thread_local void* tls_buffer = nullptr;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::~Tracer() {
  if (tls_owner == this) {
    tls_owner = nullptr;
    tls_buffer = nullptr;
  }
}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (tls_owner != this) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.back()->records.reserve(4096);
    tls_owner = this;
    tls_buffer = buffers_.back().get();
  }
  return *static_cast<ThreadBuffer*>(tls_buffer);
}

Tracer::Span::Span(Tracer& tracer, const char* name, const char* category)
    : tracer_(&tracer), name_(name), category_(category) {
  if (tracer_->enabled_) {
    ThreadBuffer& buf = tracer_->buffer();
    id_ = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
    parent_ = buf.open.empty() ? 0 : buf.open.back();
    buf.open.push_back(id_);
  }
  start_ = Clock::now();
}

double Tracer::Span::stop() {
  if (elapsed_s_ >= 0.0) return elapsed_s_;
  const Clock::time_point end = Clock::now();
  elapsed_s_ = std::chrono::duration<double>(end - start_).count();
  if (tracer_->enabled_) {
    ThreadBuffer& buf = tracer_->buffer();
    if (!buf.open.empty() && buf.open.back() == id_) buf.open.pop_back();
    if (buf.records.size() < kMaxSpansPerThread) {
      Record record;
      record.name = name_;
      record.category = category_;
      record.start_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              start_ - tracer_->origin_)
              .count();
      record.duration_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
              .count();
      record.thread = buf.thread;
      record.id = id_;
      record.parent = parent_;
      buf.records.push_back(record);
    } else {
      ++buf.dropped;
    }
  }
  return elapsed_s_;
}

std::size_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& buf : buffers_) count += buf->records.size();
  return count;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t count = 0;
  for (const auto& buf : buffers_) count += buf->dropped;
  return count;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& buf : buffers_) {
    out << (first ? "" : ",\n") << "{\"name\":\"thread_name\",\"ph\":\"M\","
        << "\"pid\":1,\"tid\":" << buf->thread
        << ",\"args\":{\"name\":\"thread " << buf->thread << "\"}}";
    first = false;
    for (const Record& r : buf->records) {
      out << ",\n{\"name\":\"" << r.name << "\",\"cat\":\"" << r.category
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
          << ",\"ts\":" << static_cast<double>(r.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(r.duration_ns) / 1e3
          << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
          << "}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
