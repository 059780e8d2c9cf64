// orinbench: the repository benchmark's entry point.
//
//   orinbench --workload <chat_http|long_ctx|fleet_sim> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]
//
// Untraced (--trace 0), the workload runs once and the last stdout line is
// {"correct", "attempted", "failed", "metrics"} with every end-to-end
// metric. Traced (--trace 1), it runs untraced and then again with spans
// recorded around every layer call, each for half of --seconds; the
// metrics are the per-layer ones (inapplicable ones read 0 and are listed
// in the run record), including the tracing overhead between the two runs. Either way a run record goes
// to <dir>/record-<workload>-seed<n>-trace<t>.json, and a traced run also
// writes its spans to <dir>/trace-<workload>-seed<n>.json (Chrome
// trace_event format).
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "tensor/simd.h"
#include "workloads.h"

#ifndef ORINBENCH_BUILD_TYPE
#define ORINBENCH_BUILD_TYPE "unknown"
#endif

namespace orinbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"ttft_p50_ms", "ms"},      {"ttft_tail_ms", "ms"},     {"itl_p50_ms", "ms"},
    {"itl_p99_ms", "ms"},       {"output_tok_s", "tok/s"},  {"slo_attain_frac", "frac"},
    {"success_frac", "frac"},   {"sim_req_per_host_s", "1/s"}, {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"server.metrics_scrape_p50_ms", "ms"},
    {"server.metrics_scrape_p99_ms", "ms"},
    {"server.head_p50_ms", "ms"},
    {"server.refused_frac", "frac"},
    {"server.rss_growth_mb", "MB"},
    {"serving.step_prefill_ms_p50", "ms"},
    {"serving.step_decode_ms_p50", "ms"},
    {"serving.step_decode_ms_p99", "ms"},
    {"serving.queue_wait_p50_ms", "ms"},
    {"serving.batch_mean", "requests"},
    {"serving.kv_peak_frac", "frac"},
    {"serving.preemptions", "count"},
    {"serving.prefix_hit_rate", "frac"},
    {"serving.prefix_token_frac", "frac"},
    {"serving.prefix_evicted_blocks", "count"},
    {"serving.overhead_frac", "frac"},
    {"serving.sim_step_us", "us"},
    {"model.prefill_tok_s.short", "tok/s"},
    {"model.prefill_tok_s.long", "tok/s"},
    {"model.decode_step_ms.ctx_short", "ms"},
    {"model.decode_step_ms.ctx_long", "ms"},
    {"model.decode_ctx_ratio", "ratio"},
    {"model.lm_head_ms", "ms"},
    {"quant.matvec_gbps.fp16", "GB/s"},
    {"quant.matvec_gbps.int4", "GB/s"},
    {"quant.matvec_share", "frac"},
    {"sim.decode_step_us", "us"},
    {"trace.events_per_request", "count"},
    {"trace.overhead_frac", "frac"},
};

// A run whose generator sent late beyond these limits did not apply the
// load it claims, and is reported invalid instead of scored. long_ctx's
// single driver thread can only send between steps, so a send may wait
// out one prefill step (about 0.3 s at 2k tokens); the p99 limit leaves
// room for that on a slow host.
constexpr double kLatenessP50Limit_s = 0.1;
constexpr double kLatenessP99Limit_s = 2.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a, std::string& error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--out") {
        a.out_dir = value;
      } else if (key == "--commit") {
        a.commit = value;
      } else {
        error = "unknown flag " + key;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if (a.workload != "chat_http" && a.workload != "long_ctx" && a.workload != "fleet_sim") {
    error = "--workload must be chat_http, long_ctx or fleet_sim";
  } else if (!have_seed) {
    error = "--seed is required";
  } else if (!(a.seconds >= 1.0 && a.seconds <= 600.0)) {
    error = "--seconds must be in [1, 600]";
  } else if (a.trace != 0 && a.trace != 1) {
    error = "--trace must be 0 or 1";
  }
  return error.empty();
}

WorkloadResult run_workload(const Args& a, const RunOptions& opt, Tracer& tracer) {
  if (a.workload == "chat_http") return run_chat_http(opt, tracer);
  if (a.workload == "long_ctx") return run_long_ctx(opt, tracer);
  return run_fleet_sim(opt, tracer);
}

std::string cpu_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::set<std::string> have;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string w;
    while (words >> w) have.insert(w);
    break;
  }
  static const char* kRelevant[] = {"sse4_2",   "avx",      "avx2",        "fma",
                                    "f16c",     "avx512f",  "avx512bw",    "avx512_vnni",
                                    "avx_vnni", "amx_tile", "avx512_fp16"};
  std::string out = "[";
  for (const char* f : kRelevant) {
    if (have.count(f) == 0) continue;
    if (out.size() > 1) out += ", ";
    out += "\"" + std::string(f) + "\"";
  }
  return out + "]";
}

std::string env_record(const Args& a) {
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  std::string r;
  r += "\"commit\": \"" + json_escape(a.commit) + "\", ";
  r += "\"build_type\": \"" ORINBENCH_BUILD_TYPE "\", ";
  r += "\"simd_level\": \"" +
       std::string(orinsim::simd::level_name(orinsim::simd::active_level())) + "\", ";
  r += "\"cpu_flags\": " + cpu_flags() + ", ";
  r += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) + ", ";
  r += "\"omp_num_threads_env\": " +
       (omp_env != nullptr ? "\"" + json_escape(omp_env) + "\"" : std::string("null")) + ", ";
  r += "\"omp_max_threads\": " + std::to_string(omp_get_max_threads()) + ", ";
  r += "\"engine_decode_pool\": 0";
  return r;
}

int run(int argc, char** argv) {
  Args a;
  std::string error;
  if (!parse_args(argc, argv, a, error)) {
    std::fprintf(stderr, "orinbench: %s\n", error.c_str());
    return 2;
  }

  RunOptions opt;
  opt.seed = a.seed;
  opt.seconds = a.seconds;
  Tracer untraced_tracer(false);
  WorkloadResult result;
  WorkloadResult untraced;
  std::unique_ptr<Tracer> tracer;
  if (a.trace == 0) {
    result = run_workload(a, opt, untraced_tracer);
  } else {
    // Each half gets half of --seconds, so a traced run takes about as long
    // as an untraced one.
    opt.setup_reps = 1;
    opt.seconds = a.seconds / 2;
    untraced = run_workload(a, opt, untraced_tracer);
    tracer = std::make_unique<Tracer>(true);
    result = run_workload(a, opt, *tracer);
  }

  std::vector<std::string> failures = result.check_failures;
  failures.insert(failures.end(), untraced.check_failures.begin(),
                  untraced.check_failures.end());
  const double late_p50 = percentile(result.lateness_s, 50.0);
  const double late_p99 = percentile(result.lateness_s, 99.0);
  const bool valid = late_p50 <= kLatenessP50Limit_s && late_p99 <= kLatenessP99Limit_s;

  MetricSet printed;
  std::vector<std::string> not_applicable;
  if (a.trace == 0) {
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* m = result.e2e.find(spec.name);
      if (m == nullptr) throw std::logic_error(std::string("workload lacks ") + spec.name);
      printed.add(spec.name, m->value, spec.unit);
    }
  } else {
    // Overhead of tracing on the workload's headline number: TTFT p50 on
    // the served workloads, host throughput on fleet_sim.
    const bool fleet = a.workload == "fleet_sim";
    const char* headline = fleet ? "sim_req_per_host_s" : "ttft_p50_ms";
    const double off = untraced.e2e.value(headline), on = result.e2e.value(headline);
    result.layers.add("trace.overhead_frac", fleet ? (off - on) / on : (on - off) / off, "frac");
    for (const MetricSpec& spec : kPerLayer) {
      const Metric* m = result.layers.find(spec.name);
      if (m == nullptr) not_applicable.push_back(spec.name);
      printed.add(spec.name, m != nullptr ? m->value : 0.0, spec.unit);
    }
  }

  std::string record = "{";
  record += "\"workload\": \"" + a.workload + "\", \"seed\": " + std::to_string(a.seed) +
            ", \"seconds\": " + json_number(a.seconds) + ", \"trace\": " +
            std::to_string(a.trace) + ", ";
  record += env_record(a) + ", ";
  record += "\"lateness_s\": {\"p50\": " + json_number(late_p50) +
            ", \"p99\": " + json_number(late_p99) +
            ", \"limit_p50\": " + json_number(kLatenessP50Limit_s) +
            ", \"limit_p99\": " + json_number(kLatenessP99Limit_s) + "}, ";
  record += "\"valid\": " + std::string(valid ? "true" : "false") + ", ";
  record += "\"attempted\": " + std::to_string(result.attempted) +
            ", \"failed\": " + std::to_string(result.failed) + ", ";
  record += "\"fail_frac\": " +
            json_number(static_cast<double>(result.failed) /
                        static_cast<double>(std::max<std::size_t>(1, result.attempted))) +
            ", ";
  record += "\"check_failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    record += (i ? ", \"" : "\"") + json_escape(failures[i]) + "\"";
  }
  record += "], \"end_to_end\": " + result.e2e.to_json();
  if (a.trace == 1) {
    record += ", \"untraced_end_to_end\": " + untraced.e2e.to_json();
    record += ", \"per_layer\": " + result.layers.to_json();
    record += ", \"not_applicable\": [";
    for (std::size_t i = 0; i < not_applicable.size(); ++i) {
      record += (i ? ", \"" : "\"") + not_applicable[i] + "\"";
    }
    record += "]";
  }
  for (const auto& [key, value] : result.record) record += ", \"" + key + "\": " + value;
  record += "}\n";

  std::filesystem::create_directories(a.out_dir);
  const std::string stem = a.workload + "-seed" + std::to_string(a.seed);
  std::ofstream(a.out_dir + "/record-" + stem + "-trace" + std::to_string(a.trace) + ".json")
      << record;
  if (tracer) std::ofstream(a.out_dir + "/trace-" + stem + ".json") << tracer->chrome_trace_json();
  std::fprintf(stderr, "%s", record.c_str());

  if (!valid) {
    std::fprintf(stderr,
                 "orinbench: INVALID run: generator lateness p50 %.4f s / p99 %.4f s "
                 "exceeds the limit; not scored\n",
                 late_p50, late_p99);
    return 3;
  }
  for (const std::string& f : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              failures.empty() ? "true" : "false", result.attempted, result.failed,
              printed.to_json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace orinbench

int main(int argc, char** argv) {
  try {
    return orinbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "orinbench: error: %s\n", e.what());
    return 2;
  }
}
