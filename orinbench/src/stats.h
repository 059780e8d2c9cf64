// Sample statistics and the metric record every workload reports through.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace orinbench {

// Nearest-rank percentile (p in [0, 100]): the value at index
// ceil(p/100 * n) - 1 of the sorted sample, clamped to it. Returns 0 for an
// empty sample.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

// The tail a sample supports: the highest percentile with at least ten
// samples beyond it, i.e. nearest rank n - 10, reported as percentile
// 100 * (n - 10) / n. With ten samples or fewer no rank qualifies; the
// median is reported with rule_met = false.
struct TailStat {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;  // samples ranked above the reported one
  bool rule_met = false;
};
TailStat tail_stat(std::vector<double> samples);

// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a letter
// or digit.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Ordered metric list; add() rejects a malformed or repeated name.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const Metric* find(std::string_view name) const;
  double value(std::string_view name) const;  // 0 when absent
  // {"name": {"value": v, "unit": "u"}, ...}
  std::string to_json() const;

 private:
  std::vector<Metric> items_;
};

std::string json_escape(std::string_view s);
// Shortest round-trip decimal form of a double (all its digits).
std::string json_number(double v);

}  // namespace orinbench
