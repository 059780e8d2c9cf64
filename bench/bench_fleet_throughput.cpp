// Fleet routing bench: a 16-device heterogeneous Jetson fleet (Orin AGX 64
// and 32, Xavier AGX, Orin NX, Orin Nano from sim/device_catalog) serving
// one diurnal arrival stream under each routing policy — round_robin,
// shortest_queue, power_headroom, prefix_affinity — with per-policy goodput,
// TTFT/TPOT p50/p99, J/token and governor step-downs in one comparison
// table. The paper measures a single Orin under batch/power sweeps; this is
// the next deployment question up: which box should each request land on
// when a storefront runs a rack of them.
//
// Four checks always run (exit non-zero on failure):
//  - memory: every device configuration fits its usable RAM under
//    sim::MemoryModel (weights plus every lane's KV at full length);
//  - determinism: the same config routed twice yields an identical
//    FleetResult (same device choices, goodput, energy, percentiles);
//  - energy conservation: per-request attributed energy sums to each
//    device's timeline total within 1e-9 (fleet dispatch must not leak or
//    double-count a joule);
//  - a functional 4-device nano chat fleet (Zipfian shared system prompts,
//    per-device prefix caches) reports cache hit rate per policy.
//
// --strict additionally enforces the two routing-quality bars the CI smoke
// pins: prefix_affinity must beat round_robin on chat cache hit rate, and
// shortest_queue must beat round_robin on p99 TTFT over the diurnal sweep.
//
//   bench_fleet_throughput [--requests=192] [--rps=10] [--slo-s=60]
//                          [--chat-requests=32] [--seed=42] [--csv] [--strict]
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/table.h"
#include "fleet/router.h"
#include "model/transformer.h"
#include "serving/serving_device.h"
#include "sim/device_catalog.h"
#include "sim/memory_model.h"
#include "sim/model_catalog.h"
#include "workload/corpus.h"

using namespace orinsim;
using namespace orinsim::fleet;

namespace {

// The 16-box heterogeneous fleet: half the rack is big Orins, the rest the
// smaller tier. Power caps sit under each class's observed MaxN draw so the
// governor has real work on the big boxes; the small boxes run phi2 (llama3
// does not fit an 8 GB Nano) at their own scaled power modes, the Nano in
// INT8 (FP16 phi2 at 4 lanes needs more than its usable memory).
std::vector<serving::ServingDevice::SimConfig> fleet_16() {
  std::vector<serving::ServingDevice::SimConfig> devices;
  auto add = [&](const std::string& key, const std::string& mode,
                 const std::string& model, DType dtype, std::size_t lanes, double cap_w,
                 std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      serving::ServingDevice::SimConfig dc;
      dc.name = key + "#" + std::to_string(devices.size());
      dc.device_key = key;
      dc.power_mode = mode;
      dc.model_key = model;
      dc.dtype = dtype;
      dc.max_concurrency = lanes;
      dc.governor.power_cap_w = cap_w;
      devices.push_back(dc);
    }
    return devices.size();
  };
  add("orin-agx-64", "MaxN", "llama3", DType::kF16, 8, 40.0, 4);
  add("orin-agx-32", "MaxN", "llama3", DType::kF16, 8, 40.0, 2);
  add("xavier-agx-32", "MaxN", "phi2", DType::kF16, 8, 30.0, 2);
  add("orin-nx-16", "MaxN", "phi2", DType::kF16, 4, 20.0, 4);
  add("orin-nano-8", "A", "phi2", DType::kI8, 4, 15.0, 4);
  return devices;
}

// The simulated engine has no memory gate, so the fleet itself must only
// serve configurations the memory model says load: weights plus the KV of
// every lane at full sequence length within the device's usable RAM.
bool fits_memory(const serving::ServingDevice::SimConfig& dc) {
  const sim::MemoryModel memory(sim::device_by_key(dc.device_key).spec);
  const sim::MemoryBreakdown need =
      memory.workload_memory(sim::model_by_key(dc.model_key), dc.dtype, dc.max_concurrency,
                             dc.seq.input, dc.seq.output);
  if (!memory.workload_oom(need)) return true;
  std::printf("FAIL: %s serves %s %s at %zu lanes, %.2f GB > %.2f GB usable\n",
              dc.name.c_str(), dc.model_key.c_str(), dtype_name(dc.dtype).c_str(),
              dc.max_concurrency, need.total_gb(), memory.usable_gb());
  return false;
}

bool summaries_equal(const FleetResult& a, const FleetResult& b) {
  return a.device_of_request == b.device_of_request && a.makespan_s == b.makespan_s &&
         a.completed == b.completed && a.goodput_rps == b.goodput_rps &&
         a.energy_j == b.energy_j && a.ttft.p99_s == b.ttft.p99_s &&
         a.tpot.p99_s == b.tpot.p99_s && a.governor_step_downs == b.governor_step_downs;
}

// Per-request energy attribution must conserve each device's timeline total:
// the fleet split a joule-for-joule accounted stream, so any leak here means
// the refactor broke the single-device invariant.
bool conserves_energy(const FleetResult& result) {
  bool ok = true;
  for (std::size_t d = 0; d < result.devices.size(); ++d) {
    const serving::EngineResult& r = result.devices[d];
    double attributed = 0.0;
    for (const serving::RequestMetrics& m : r.request_metrics) attributed += m.energy_j;
    const double total = r.timeline.total_energy_j();
    if (std::fabs(attributed - total) > 1e-9 * std::max(1.0, std::fabs(total))) {
      std::printf("FAIL: device %zu (%s) attributes %.12f J of a %.12f J timeline\n", d,
                  result.device_names[d].c_str(), attributed, total);
      ok = false;
    }
  }
  return ok;
}

// Functional nano chat fleet: 4 devices with per-device prefix caches over
// one shared nano model, chat traffic where 8 Zipf-weighted system prompts
// dominate. Routing decides whether a tenant's system prompt stays hot on
// one box (prefix_affinity) or cold-misses on every box it wanders to.
FleetResult run_chat_fleet(Model& model, const workload::PromptPool& pool,
                           std::size_t requests, std::uint64_t seed,
                           RoutePolicy policy) {
  workload::ChatWorkloadConfig chat;
  chat.system_prompts = 8;
  chat.zipf_s = 1.1;
  chat.system_tokens = 64;
  chat.user_tokens = 32;

  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_rps = 50.0;  // flooded: routing, not pacing, decides hits
  arrivals.total_requests = requests;
  arrivals.seed = seed;

  Rng rng(seed);
  const std::vector<std::vector<TokenId>> prompts =
      pool.sample_chat_batch(requests, chat, rng);
  const std::vector<double> times = arrivals.generate();
  std::vector<serving::Request> stream(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    stream[i].id = i;
    stream[i].arrival_s = times[i];
    stream[i].prompt = prompts[i];
    stream[i].prompt_tokens = prompts[i].size();
    stream[i].max_new_tokens = 8;
  }

  std::vector<std::unique_ptr<serving::ServingDevice>> devices;
  for (std::size_t d = 0; d < 4; ++d) {
    serving::FunctionalTokenBackend::Config fc;
    fc.max_lanes = 1;  // every admission is its own prefill wave
    fc.max_seq = chat.prompt_tokens() + 8;
    fc.kv_blocks = 48;
    fc.prefix_cache = true;
    fc.prefix_cache_blocks = 24;  // too small to hold all 8 system prompts
    devices.push_back(std::make_unique<serving::ServingDevice>(
        model, fc, serving::GovernorConfig{}, "nano#" + std::to_string(d)));
  }
  RouterOptions options;
  options.policy = policy;
  options.affinity_tokens = chat.system_tokens;  // hash exactly the shared prefix
  FleetRouter router(std::move(devices), options);
  return router.run(std::move(stream));
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto requests = static_cast<std::size_t>(args.get_int("requests", 192));
  const double rps = args.get_double("rps", 10.0);
  const double slo_s = args.get_double("slo-s", 60.0);
  const auto chat_requests = static_cast<std::size_t>(args.get_int("chat-requests", 32));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const bool csv = args.get_bool("csv", false);
  const bool strict = args.get_bool("strict", false);

  SimFleetConfig config;
  config.devices = fleet_16();
  config.arrivals.kind = workload::ArrivalKind::kDiurnal;
  config.arrivals.rate_rps = rps;
  config.arrivals.total_requests = requests;
  config.arrivals.seed = seed;
  config.options.slo_s = slo_s;
  config.options.affinity_tokens = 16;

  std::printf("Fleet: %zu devices, %zu requests, diurnal arrivals at %.1f req/s mean, "
              "SLO %.0f s\n\n",
              config.devices.size(), requests, rps, slo_s);

  bool ok = true;
  for (const serving::ServingDevice::SimConfig& dc : config.devices) {
    if (!fits_memory(dc)) ok = false;
  }

  Table table({"Policy", "Completed", "Goodput (req/s)", "TTFT p50 (s)", "TTFT p99 (s)",
               "TPOT p50 (s)", "TPOT p99 (s)", "J/token", "Step-downs", "Preempts"});
  double rr_ttft_p99 = 0.0;
  double jsq_ttft_p99 = 0.0;
  for (RoutePolicy policy : all_route_policies()) {
    const FleetResult r = run_sim_fleet(config, policy);
    const FleetResult again = run_sim_fleet(config, policy);
    if (!summaries_equal(r, again)) {
      std::printf("FAIL: %s is not deterministic across identical runs\n",
                  route_policy_name(policy).c_str());
      ok = false;
    }
    if (!conserves_energy(r)) ok = false;
    if (policy == RoutePolicy::kRoundRobin) rr_ttft_p99 = r.ttft.p99_s;
    if (policy == RoutePolicy::kShortestQueue) jsq_ttft_p99 = r.ttft.p99_s;
    table.new_row()
        .add_cell(route_policy_name(policy))
        .add_cell(std::to_string(r.completed) + "/" + std::to_string(requests))
        .add_number(r.goodput_rps, 2)
        .add_number(r.ttft.p50_s, 2)
        .add_number(r.ttft.p99_s, 2)
        .add_number(r.tpot.p50_s, 3)
        .add_number(r.tpot.p99_s, 3)
        .add_number(r.energy_per_token_j, 2)
        .add_cell(std::to_string(r.governor_step_downs))
        .add_cell(std::to_string(r.preemptions));
  }
  std::fputs((csv ? table.to_csv() : table.to_markdown()).c_str(), stdout);

  std::printf("\nChat fleet: 4 functional nano devices, per-device prefix caches, "
              "%zu requests\n\n",
              chat_requests);
  const workload::Corpus corpus =
      workload::generate_corpus(workload::CorpusSpec::wikitext2());
  const Tokenizer tokenizer = Tokenizer::train(corpus.text, 400);
  const workload::PromptPool pool(corpus, tokenizer, 256);
  auto master = MasterWeights::init_random(
      make_nano_config("llama3", tokenizer.vocab_size()), 7);
  Model model(master, DType::kF32);

  Table chat_table({"Policy", "Hit rate", "Hits/lookups", "Prefill tokens skipped",
                    "TTFT p99 (ms)"});
  double rr_hit_rate = 0.0;
  double affinity_hit_rate = 0.0;
  for (RoutePolicy policy : {RoutePolicy::kRoundRobin, RoutePolicy::kPrefixAffinity}) {
    const FleetResult r = run_chat_fleet(model, pool, chat_requests, seed, policy);
    if (policy == RoutePolicy::kRoundRobin) rr_hit_rate = r.cache_hit_rate();
    if (policy == RoutePolicy::kPrefixAffinity) affinity_hit_rate = r.cache_hit_rate();
    chat_table.new_row()
        .add_cell(route_policy_name(policy))
        .add_number(100.0 * r.cache_hit_rate(), 1)
        .add_cell(std::to_string(r.prefix_cache.hits) + "/" +
                  std::to_string(r.prefix_cache.lookups))
        .add_cell(std::to_string(r.prefix_cache.hit_tokens))
        .add_number(1e3 * r.ttft.p99_s, 2);
  }
  std::fputs((csv ? chat_table.to_csv() : chat_table.to_markdown()).c_str(), stdout);

  const bool affinity_bar = affinity_hit_rate > rr_hit_rate;
  const bool jsq_bar = jsq_ttft_p99 < rr_ttft_p99;
  std::printf("\nRouting bars%s:\n", strict ? " (enforced)" : " (advisory)");
  std::printf("  prefix_affinity hit rate %.1f%% %s round_robin %.1f%%\n",
              100.0 * affinity_hit_rate, affinity_bar ? ">" : "<=", 100.0 * rr_hit_rate);
  std::printf("  shortest_queue TTFT p99 %.2f s %s round_robin %.2f s\n", jsq_ttft_p99,
              jsq_bar ? "<" : ">=", rr_ttft_p99);
  if (strict && !(affinity_bar && jsq_bar)) ok = false;

  if (!ok) {
    std::printf("\nFAIL: fleet routing checks did not hold.\n");
    return 1;
  }
  std::printf("\nAll fleet checks passed.\n");
  return 0;
}
