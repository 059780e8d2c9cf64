#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace orinbench {

namespace {

// ceil(p/100 * n), immune to the rounding of p/100 (0.999 * 10000 must be
// rank 9990, not 9991).
std::size_t nearest_rank(double p, std::size_t n) {
  return static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = nearest_rank(p, sorted.size());
  return sorted[rank < 1 ? 0 : std::min(sorted.size(), rank) - 1];
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, p);
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

TailStat tail_stat(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  TailStat t;
  t.n = samples.size();
  if (t.n <= 10) {
    t.value = percentile_sorted(samples, 50.0);
    t.beyond = t.n - std::min(t.n, nearest_rank(50.0, t.n));
    return t;
  }
  const std::size_t rank = t.n - 10;
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(t.n);
  t.value = samples[rank - 1];
  t.beyond = 10;
  t.rule_met = true;
  return t;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

void MetricSet::add(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name: " + name);
  if (find(name) != nullptr) throw std::invalid_argument("repeated metric: " + name);
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric: " + name);
  items_.push_back({name, value, unit});
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double MetricSet::value(std::string_view name) const {
  const Metric* m = find(name);
  return m != nullptr ? m->value : 0.0;
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(items_[i].name) + "\": {\"value\": " +
           json_number(items_[i].value) + ", \"unit\": \"" + json_escape(items_[i].unit) +
           "\"}";
  }
  return out + "}";
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace orinbench
