// The benchmark's workloads. Each one builds its own program stack through
// the public APIs, drives its seeded load, checks every output, and fills
// the end-to-end metrics (and, when traced, the per-layer ones).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/transformer.h"
#include "serving/engine.h"
#include "stats.h"
#include "tracer.h"

namespace orinbench {

// The served workloads replay one fixed arrival trace each (a stratified
// Poisson realization, with long_ctx's prompt-length order): a run sends
// only 20-40 requests, too few to average over how arrivals cluster, and
// with the engine holding its lock through a whole busy period that
// clustering alone moved TTFT medians by 30% between seeds. --seed varies
// everything else: the prompt text, the system-prompt draws and the
// tokens generated.
constexpr std::uint64_t kArrivalTraceSeed = 0x0b1e5eedULL;

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Set-up repetitions; setup_s reports their median.
  std::size_t setup_reps = 3;
};

struct WorkloadResult {
  MetricSet e2e;
  MetricSet layers;
  std::size_t attempted = 0;
  std::size_t failed = 0;  // failed, refused or wrong
  std::vector<std::string> check_failures;
  // How late the generator sent each request after its due time (s).
  std::vector<double> lateness_s;
  // Extra run-record fields, each value already JSON-encoded.
  std::vector<std::pair<std::string, std::string>> record;

  void fail_check(std::string what) { check_failures.push_back(std::move(what)); }
  void note(std::string key, std::string json_value) {
    record.emplace_back(std::move(key), std::move(json_value));
  }
};

WorkloadResult run_chat_http(const RunOptions& opt, Tracer& tracer);
WorkloadResult run_long_ctx(const RunOptions& opt, Tracer& tracer);
WorkloadResult run_fleet_sim(const RunOptions& opt, Tracer& tracer);

// --- shared pieces (served_common.cpp) ------------------------------------

// Offline greedy completions of `prompts` (max_new tokens each), served by
// one offline ContinuousEngine per core, each over its own backend built
// from `config` around the shared `model`: the `orinsim_serve --offline`
// contract the served streams are checked against.
std::vector<std::vector<orinsim::TokenId>> offline_greedy(
    orinsim::Model& model, const orinsim::serving::FunctionalTokenBackend::Config& config,
    const std::vector<std::vector<orinsim::TokenId>>& prompts, std::size_t max_new);

// Replays a workload's shapes through the public Model and WeightMatrix
// calls and adds the model.* and quant.* per-layer metrics. Decode is
// timed at context 64 and at ctx_long.
struct ReplayShape {
  std::size_t lanes = 1;
  std::size_t prefill_tokens = 0;   // one prompt through forward_chunk
  std::string prefill_metric;       // model.prefill_tok_s.short / .long
  std::size_t ctx_long = 0;
  std::string matvec_metric;        // quant.matvec_gbps.fp16 / .int4
};
void replay_model_layers(orinsim::Model& model, const ReplayShape& shape, Tracer& tracer,
                         MetricSet& layers);

// The end-to-end latency metrics of a served workload, from per-request
// first-token latencies, inter-token gaps and SLO outcomes.
struct ServedSamples {
  std::vector<double> ttft_s;
  std::vector<double> itl_s;
  std::size_t generated_tokens = 0;
  std::size_t completed = 0;
  std::size_t slo_met = 0;
  double first_due_s = 0.0;
  double last_done_s = 0.0;
};
void add_served_metrics(const ServedSamples& s, std::size_t attempted, WorkloadResult& out);

// Resident and peak resident set of this process, in MB.
double rss_mb();
double peak_rss_mb();

}  // namespace orinbench
