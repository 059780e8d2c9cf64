#include "tracer.h"

#include <atomic>
#include <chrono>

#include "stats.h"

namespace orinbench {

namespace {

// Open spans on this thread, innermost last: the parent of the next span.
thread_local std::vector<std::int64_t> t_open;

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag = next++;
  return tag;
}

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

std::int64_t Tracer::begin(std::string name, std::int64_t request_id) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = std::move(name);
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.request_id = request_id;
  s.thread = thread_tag();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    s.start_s = now_s();
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const double t = now_s();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::string Tracer::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<SpanRecord>& all = spans_;
  std::string out = "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    if (i > 0) out += ",\n";
    out += "{\"name\": \"" + json_escape(s.name) + "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(s.thread) + ", \"ts\": " + json_number(s.start_s * 1e6) +
           ", \"dur\": " + json_number((s.end_s - s.start_s) * 1e6) +
           ", \"args\": {\"id\": " + std::to_string(i) + ", \"parent\": " +
           std::to_string(s.parent) + ", \"request_id\": " + std::to_string(s.request_id) +
           "}}";
  }
  return out + "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace orinbench
