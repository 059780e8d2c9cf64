// long_ctx: the model layer in the paper's Fig 2/Fig 3 regime, where
// quantized-KV attention dominates decode. One thread drives a real-time
// ContinuousEngine over a one-lane FunctionalTokenBackend (int4 weights,
// int8 KV, the llama3 nano block cut to one layer, max_seq raised for
// 2k-token contexts) through submit()/step() on an open-loop Poisson
// schedule. Prompts are unshared and 1.5-2k tokens long; outputs are long.
// HTTP is bypassed, and the prefix cache is on but can never hit: every
// lookup misses and every retirement inserts and, once the pool is full,
// evicts: the opposite use of the cache from chat_http.
//
// One layer keeps a 2k-token prefill near 0.3 s, so a 45 s run holds about
// 30 requests; one lane keeps a request's decode free of other requests'
// prefill waves, so ITL is the long-context decode step itself.
#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "loadgen.h"
#include "workloads.h"
#include "workload/corpus.h"

namespace orinbench {

using orinsim::TokenId;
namespace serving = orinsim::serving;
namespace trace = orinsim::trace;

namespace {

// About a third of the engine's capacity (~2/s): most requests find it
// idle, so the TTFT median is mostly prefill time rather than queueing luck.
constexpr double kRateRps = 0.7;
constexpr std::size_t kLanes = 1;
constexpr std::size_t kMinPrompt = 1536;
constexpr std::size_t kMaxPrompt = 2048;
// Long answers, so a run's ITL samples span ~6 s of decoding: the median
// then averages over the shared host's second-to-second speed swings
// instead of following a few of them.
constexpr std::size_t kMaxTokens = 384;
// About twice the p90 TTFT (~0.9 s) and the per-request mean ITL (~0.5 ms)
// measured on a 4-vCPU Xeon host: a run meets them with a little room, and
// a prefill or decode step that gets much slower shows up as misses.
constexpr double kTtftSlo_s = 1.75;
constexpr double kItlSlo_s = 0.001;

struct LongStack {
  std::vector<TokenId> words;
  std::shared_ptr<const orinsim::MasterWeights> master;
  std::unique_ptr<orinsim::Model> model;
  serving::FunctionalTokenBackend::Config backend_config;
  std::unique_ptr<serving::FunctionalTokenBackend> backend;
  std::unique_ptr<serving::ContinuousEngine> engine;
};

std::unique_ptr<LongStack> build_stack() {
  auto s = std::make_unique<LongStack>();
  const orinsim::workload::Corpus corpus =
      orinsim::workload::generate_corpus(orinsim::workload::CorpusSpec::wikitext2());
  const orinsim::Tokenizer tokenizer = orinsim::Tokenizer::train(corpus.text, 400);
  s->words = word_stream(tokenizer, corpus);
  orinsim::TransformerConfig cfg = orinsim::make_nano_config("llama3", tokenizer.vocab_size());
  cfg.max_seq = kMaxPrompt + kMaxTokens;
  cfg.n_layers = 1;
  cfg.validate();
  s->master = orinsim::MasterWeights::init_random(cfg, 7);
  s->model = std::make_unique<orinsim::Model>(s->master, orinsim::DType::kI4,
                                              orinsim::KVStorage::kI8);
  s->backend_config.max_lanes = kLanes;
  s->backend_config.max_seq = cfg.max_seq;
  s->backend_config.kv_storage = orinsim::KVStorage::kI8;
  // The tree keeps every retired prompt until the pool runs dry; from then
  // on each admission evicts cached blocks to make room.
  s->backend_config.prefix_cache = true;
  s->backend = std::make_unique<serving::FunctionalTokenBackend>(*s->model, s->backend_config);
  s->engine = std::make_unique<serving::ContinuousEngine>(*s->backend, serving::GovernorConfig{},
                                                          /*real_time=*/true);
  return s;
}

}  // namespace

WorkloadResult run_long_ctx(const RunOptions& opt, Tracer& tracer) {
  WorkloadResult out;
  // The stack builds in tens of milliseconds, so it is built more often than
  // chat_http's to steady the median.
  std::vector<double> setup_s;
  std::unique_ptr<LongStack> stack;
  for (std::size_t rep = 0; rep < 5 * opt.setup_reps; ++rep) {
    stack.reset();
    const double t0 = now_s();
    Span span(tracer, "setup");
    stack = build_stack();
    setup_s.push_back(now_s() - t0);
  }
  LongStack& s = *stack;
  serving::ContinuousEngine& engine = *s.engine;

  const std::size_t n = static_cast<std::size_t>(std::llround(kRateRps * opt.seconds));
  const std::vector<double> offsets = poisson_schedule(kArrivalTraceSeed, kRateRps, n);
  const std::vector<std::vector<TokenId>> prompts = long_prompts(
      s.words, kArrivalTraceSeed, derive_seed(opt.seed, 2), n, kMinPrompt, kMaxPrompt);

  std::vector<double> due(n), lateness(n, 0.0);
  std::vector<std::vector<double>> token_times(n);
  std::vector<std::vector<TokenId>> tokens(n);
  std::vector<double> prefill_steps_ms, decode_steps_ms;
  double step_wall_s = 0.0, step_event_s = 0.0;
  const double rss_warm = rss_mb();

  const double start = now_s() + 0.05;
  for (std::size_t i = 0; i < n; ++i) due[i] = start + offsets[i];
  std::size_t next = 0;
  const trace::ExecutionTimeline& timeline = engine.timeline();
  while (engine.retired_count() < n) {
    const double t = now_s();
    while (next < n && due[next] <= t) {
      serving::Request req;
      req.prompt = prompts[next];
      req.prompt_tokens = prompts[next].size();
      req.max_new_tokens = kMaxTokens;
      serving::StreamCallbacks callbacks;
      callbacks.on_token = [&token_times, &tokens, i = next](const serving::Request&,
                                                             TokenId tok) {
        token_times[i].push_back(now_s());
        tokens[i].push_back(tok);
      };
      lateness[next] = t - due[next];
      Span span(tracer, "engine.submit", static_cast<std::int64_t>(next));
      if (engine.submit(std::move(req), std::move(callbacks)) != next) {
        throw std::runtime_error("long_ctx: unexpected request id");
      }
      ++next;
    }
    if (engine.idle()) {
      if (next >= n) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(due[next] - now_s()));
      continue;
    }
    const std::size_t first_event = timeline.events().size();
    const double t0 = now_s();
    {
      Span span(tracer, "engine.step");
      engine.step();
    }
    const double wall = now_s() - t0;
    bool prefill = false;
    double events_s = 0.0;
    for (std::size_t e = first_event; e < timeline.events().size(); ++e) {
      const trace::StepEvent& ev = timeline.events()[e];
      if (ev.phase == trace::Phase::kStall) continue;
      prefill = prefill || ev.phase == trace::Phase::kPrefill;
      events_s += ev.duration_s;
    }
    (prefill ? prefill_steps_ms : decode_steps_ms).push_back(1e3 * wall);
    step_wall_s += wall;
    step_event_s += events_s;
  }
  const double peak = peak_rss_mb();
  const double rss_end = rss_mb();

  // Queue wait: due time to first admission (engine clock offsets are
  // relative to each request's submit, which was `lateness` after due).
  std::vector<double> queue_wait_s;
  {
    std::vector<bool> seen(n, false);
    for (const trace::RequestEvent& ev : timeline.request_events()) {
      if (ev.kind != trace::RequestEventKind::kAdmit || seen[ev.request_id]) continue;
      seen[ev.request_id] = true;
      queue_wait_s.push_back(ev.t_s - engine.request(ev.request_id).arrival_s +
                             lateness[ev.request_id]);
    }
  }
  const std::size_t kv_total = s.backend->kv_usage().total_blocks;
  const serving::EngineResult result = engine.finish();

  std::vector<std::vector<TokenId>> reference;
  {
    Span span(tracer, "reference");
    reference = offline_greedy(*s.model, s.backend_config, prompts, kMaxTokens);
  }

  ServedSamples samples;
  samples.first_due_s = due.front();
  std::size_t succeeded = 0, failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const serving::Request& r = result.requests[i];
    if (r.state != serving::RequestState::kFinished || tokens[i].size() != kMaxTokens) {
      ++failed;
      out.fail_check("request " + std::to_string(i) + " did not finish");
      continue;
    }
    if (tokens[i] != reference[i] || r.output != reference[i]) {
      ++failed;
      out.fail_check("request " + std::to_string(i) + " differs from its offline completion");
      continue;
    }
    ++succeeded;
    const std::vector<double>& tt = token_times[i];
    const double ttft = tt.front() - due[i];
    samples.ttft_s.push_back(ttft);
    for (std::size_t k = 1; k < tt.size(); ++k) samples.itl_s.push_back(tt[k] - tt[k - 1]);
    const double mean_itl = (tt.back() - tt.front()) / static_cast<double>(tt.size() - 1);
    if (ttft <= kTtftSlo_s && mean_itl <= kItlSlo_s) ++samples.slo_met;
    samples.generated_tokens += tt.size();
    samples.last_done_s = std::max(samples.last_done_s, tt.back());
  }
  samples.completed = succeeded;
  if (succeeded + failed != n) out.fail_check("sent != succeeded+failed");
  if (result.latencies_s.size() != n) out.fail_check("engine retired a different count");

  out.attempted = n;
  out.failed = failed;
  out.lateness_s = lateness;
  if (samples.ttft_s.empty()) throw std::runtime_error("long_ctx: no request succeeded");
  add_served_metrics(samples, n, out);
  out.e2e.add("peak_rss_mb", peak, "MB");
  out.e2e.add("setup_s", median(setup_s), "s");

  const trace::ExecutionTimeline& tl = result.timeline;
  const auto& pc = result.prefix_cache;
  out.layers.add("server.rss_growth_mb", rss_end - rss_warm, "MB");
  out.layers.add("serving.step_prefill_ms_p50", median(prefill_steps_ms), "ms");
  out.layers.add("serving.step_decode_ms_p50", median(decode_steps_ms), "ms");
  out.layers.add("serving.step_decode_ms_p99", percentile(decode_steps_ms, 99.0), "ms");
  out.layers.add("serving.queue_wait_p50_ms", 1e3 * median(queue_wait_s), "ms");
  out.layers.add("serving.batch_mean", tl.mean_batch(trace::Phase::kDecode), "requests");
  out.layers.add("serving.kv_peak_frac",
                 kv_total > 0 ? static_cast<double>(result.peak_kv_blocks) /
                                    static_cast<double>(kv_total)
                              : 0.0,
                 "frac");
  out.layers.add("serving.preemptions", static_cast<double>(result.preemptions), "count");
  out.layers.add("serving.prefix_hit_rate", pc.hit_rate(), "frac");
  std::size_t prompt_tokens = 0;
  for (const auto& p : prompts) prompt_tokens += p.size();
  out.layers.add("serving.prefix_token_frac",
                 static_cast<double>(pc.hit_tokens) / static_cast<double>(prompt_tokens), "frac");
  out.layers.add("serving.prefix_evicted_blocks", static_cast<double>(pc.evicted_blocks), "count");
  out.layers.add("serving.overhead_frac", (step_wall_s - step_event_s) / step_wall_s, "frac");
  out.layers.add("trace.events_per_request",
                 static_cast<double>(tl.events().size() + tl.request_events().size() +
                                     tl.prefix_cache_events().size()) /
                     static_cast<double>(n),
                 "count");
  out.note("steps", "{\"prefill\": " + std::to_string(prefill_steps_ms.size()) +
                        ", \"decode\": " + std::to_string(decode_steps_ms.size()) + "}");
  out.note("driver_threads", "1");

  if (tracer.enabled()) {
    ReplayShape shape;
    shape.lanes = kLanes;
    shape.prefill_tokens = (kMinPrompt + kMaxPrompt) / 2;
    shape.prefill_metric = "model.prefill_tok_s.long";
    shape.ctx_long = kMaxPrompt;
    shape.matvec_metric = "quant.matvec_gbps.int4";
    replay_model_layers(*s.model, shape, tracer, out.layers);
  }
  return out;
}

}  // namespace orinbench
