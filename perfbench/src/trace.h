#ifndef OTCLEAN_PERFBENCH_TRACE_H_
#define OTCLEAN_PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced run. Spans are opened
// and closed by the benchmark's own code around calls into the library's
// public functions (nothing inside the library is instrumented), kept in a
// vector, and written out once when the run ends — Chrome trace-event JSON
// that opens in Perfetto, plus a per-layer summary with total and self
// time. Single-threaded by design: the traced replays run on the main
// thread.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace otclean::perfbench {

struct Span {
  std::string name;
  uint64_t request = 0;  ///< spans of one request share this id
  int parent = -1;       ///< index of the enclosing span, -1 at the root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open span; returns its index.
  int Begin(const std::string& name, uint64_t request) {
    Span s;
    s.name = name;
    s.request = request;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes the innermost open span (which must be `index`); returns its
  /// duration in seconds.
  double End(int index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
    return spans_[index].seconds();
  }

  /// Records an already-closed interval that does not nest under the open
  /// spans — e.g. a scheduler job's Submit → Wait, which overlaps other
  /// jobs' intervals. Times come from NowNs().
  void AddSpan(const std::string& name, uint64_t request, int64_t start_ns,
               int64_t end_ns) {
    Span s;
    s.name = name;
    s.request = request;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(std::move(s));
  }

  /// Nanoseconds since the tracer was created.
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of span `index`: its duration minus the part of it covered
  /// by its direct children (children never overlap — one thread).
  double SelfSeconds(size_t index) const {
    double self = spans_[index].seconds();
    for (const Span& s : spans_) {
      if (s.parent == static_cast<int>(index)) self -= s.seconds();
    }
    return self;
  }

  /// Writes the spans as Chrome trace events (one track per request),
  /// the `meta` JSON object, and a per-name summary (count, total and self
  /// seconds). Returns false when the file cannot be written.
  bool WriteJson(const std::string& path, const std::string& meta) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"meta\": " << meta << ",\n\"traceEvents\": [\n";
    bool first = true;
    for (const Span& s : spans_) {
      out << (first ? "" : ",\n") << "{\"name\": " << JsonString(s.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.request
          << ", \"ts\": " << JsonNumber(static_cast<double>(s.start_ns) / 1e3)
          << ", \"dur\": "
          << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << "}";
      first = false;
    }
    struct Summary {
      size_t count = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::map<std::string, Summary> summary;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Summary& s = summary[spans_[i].name];
      ++s.count;
      s.total += spans_[i].seconds();
      s.self += SelfSeconds(i);
    }
    out << "\n], \"summary\": {";
    first = true;
    for (const auto& [name, s] : summary) {
      out << (first ? "\n" : ",\n") << JsonString(name) << ": {\"count\": "
          << s.count << ", \"total_s\": " << JsonNumber(s.total)
          << ", \"self_s\": " << JsonNumber(s.self) << "}";
      first = false;
    }
    out << "\n}}\n";
    return static_cast<bool>(out);
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction or Stop().
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, uint64_t request)
      : tracer_(tracer), index_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early; returns its duration in seconds.
  double Stop() {
    if (!open_) return seconds_;
    open_ = false;
    seconds_ = tracer_.End(index_);
    return seconds_;
  }

 private:
  Tracer& tracer_;
  int index_;
  bool open_ = true;
  double seconds_ = 0.0;
};

}  // namespace otclean::perfbench

#endif  // OTCLEAN_PERFBENCH_TRACE_H_
