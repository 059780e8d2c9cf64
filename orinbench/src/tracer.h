// Spans recorded by the benchmark around its own calls into each layer.
//
// A span has a name, a start and end on the benchmark's steady clock, the
// span that caused it and, where one applies, a request id. Spans live in
// memory for the whole run and are written once, at exit, as Chrome
// trace_event JSON. A disabled tracer records nothing; Span construction
// then costs one branch.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace orinbench {

// Seconds on the steady clock since the process's first call.
double now_s();

struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;      // index of the causing span, -1: root
  std::int64_t request_id = -1;  // -1: not tied to one request
  std::uint32_t thread = 0;      // small per-thread id for the trace viewer
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span whose parent is the innermost open span on this thread;
  // returns its id (-1 when disabled).
  std::int64_t begin(std::string name, std::int64_t request_id = -1);
  void end(std::int64_t id);

  std::string chrome_trace_json() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span: begin on construction, end on destruction.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::int64_t request_id = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), request_id)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace orinbench
