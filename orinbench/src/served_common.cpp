#include <omp.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>

#include "core/thread_pool.h"
#include "loadgen.h"
#include "quant/weight_matrix.h"
#include "workloads.h"

namespace orinbench {

using orinsim::KVCache;
using orinsim::Model;
using orinsim::TokenId;
namespace serving = orinsim::serving;

std::vector<std::vector<TokenId>> offline_greedy(
    Model& model, const serving::FunctionalTokenBackend::Config& config,
    const std::vector<std::vector<TokenId>>& prompts, std::size_t max_new) {
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(std::thread::hardware_concurrency(), prompts.size()));
  std::vector<std::vector<TokenId>> out(prompts.size());
  orinsim::ThreadPool pool(workers);
  pool.parallel_for(0, workers, [&](std::size_t w) {
    // One kernel thread per worker, since the workers run in parallel; the
    // calling thread's setting is restored for the rest of the run.
    const int omp_threads = omp_get_max_threads();
    omp_set_num_threads(1);
    serving::FunctionalTokenBackend backend(model, config);
    serving::ContinuousEngine engine(backend);
    std::vector<std::size_t> mine;
    for (std::size_t i = w; i < prompts.size(); i += workers) {
      serving::Request req;
      req.prompt = prompts[i];
      req.prompt_tokens = prompts[i].size();
      req.max_new_tokens = max_new;
      engine.submit(std::move(req));
      mine.push_back(i);
    }
    while (engine.step() == serving::ContinuousEngine::Step::kWorked) {
    }
    serving::EngineResult result = engine.finish();
    for (std::size_t k = 0; k < mine.size(); ++k) {
      out[mine[k]] = std::move(result.requests[k].output);
    }
    omp_set_num_threads(omp_threads);
  });
  return out;
}

namespace {

constexpr std::size_t kReps = 5;

std::vector<TokenId> replay_tokens(std::size_t n, std::size_t vocab) {
  std::vector<TokenId> t(n);
  const std::size_t words = vocab - orinsim::Tokenizer::kWordBase;
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = static_cast<TokenId>(orinsim::Tokenizer::kWordBase + (i * 7919) % words);
  }
  return t;
}

// Runs `tokens` through forward_chunk in the engine's prefill chunk size.
void chunked_prefill(Model& model, std::span<const TokenId> tokens, std::size_t seq,
                     KVCache& cache, orinsim::InferenceWorkspace& ws, Tracer& tracer) {
  const std::size_t chunk = Model::kDefaultPrefillChunk;
  for (std::size_t off = 0; off < tokens.size(); off += chunk) {
    Span span(tracer, "model.forward_chunk");
    model.forward_chunk(tokens.subspan(off, std::min(chunk, tokens.size() - off)), seq, cache,
                        {}, ws);
  }
}

}  // namespace

void replay_model_layers(Model& model, const ReplayShape& shape, Tracer& tracer,
                         MetricSet& layers) {
  const orinsim::TransformerConfig& cfg = model.config();
  orinsim::InferenceWorkspace ws(cfg);
  const std::size_t lanes = shape.lanes;

  if (shape.prefill_tokens > 0) {
    const std::vector<TokenId> prompt = replay_tokens(shape.prefill_tokens, cfg.vocab);
    KVCache cache(cfg, 1, cfg.max_seq, model.kv_options());
    std::vector<double> tok_s;
    for (std::size_t rep = 0; rep < 3; ++rep) {
      cache.free_sequence(0);
      const double t0 = now_s();
      chunked_prefill(model, prompt, 0, cache, ws, tracer);
      tok_s.push_back(static_cast<double>(prompt.size()) / (now_s() - t0));
    }
    layers.add(shape.prefill_metric, median(tok_s), "tok/s");
  }

  // Decode at a context: lane 0 is prefilled once, the other lanes share its
  // blocks copy-on-write, then forward_tokens steps all lanes together.
  std::vector<float> hidden(lanes * cfg.d_model);
  const auto decode_ms = [&](std::size_t ctx) {
    KVCache cache(cfg, lanes, cfg.max_seq, model.kv_options());
    const std::vector<TokenId> prompt = replay_tokens(ctx, cfg.vocab);
    chunked_prefill(model, prompt, 0, cache, ws, tracer);
    for (std::size_t l = 1; l < lanes; ++l) cache.fork_sequence(0, l);
    std::vector<TokenId> step_tokens(lanes, prompt.back());
    std::vector<std::size_t> seqs(lanes);
    for (std::size_t l = 0; l < lanes; ++l) seqs[l] = l;
    std::vector<double> ms;
    for (std::size_t rep = 0; rep <= kReps; ++rep) {
      const double t0 = now_s();
      {
        Span span(tracer, "model.forward_tokens");
        model.forward_tokens(step_tokens, seqs, cache, hidden, ws);
      }
      if (rep > 0) ms.push_back(1e3 * (now_s() - t0));  // rep 0 warms up
    }
    return median(ms);
  };
  const double short_ms = decode_ms(64);
  const double long_ms = decode_ms(shape.ctx_long);
  layers.add("model.decode_step_ms.ctx_short", short_ms, "ms");
  layers.add("model.decode_step_ms.ctx_long", long_ms, "ms");
  layers.add("model.decode_ctx_ratio", long_ms / short_ms, "ratio");

  std::vector<float> logits(lanes * cfg.vocab);
  std::vector<double> head_ms;
  for (std::size_t rep = 0; rep < 4 * kReps; ++rep) {
    const double t0 = now_s();
    Span span(tracer, "model.logits_from_hidden_rows");
    model.logits_from_hidden_rows(hidden, logits, lanes);
    head_ms.push_back(1e3 * (now_s() - t0));
  }
  layers.add("model.lm_head_ms", median(head_ms), "ms");

  // Every block projection at this geometry and the model's weight dtype.
  // Bytes are computed from the matrices' storage, streamed once per call.
  struct Shape {
    std::size_t out, in;
  };
  const std::size_t d = cfg.d_model, kv = cfg.kv_dim(), ff = cfg.d_ff;
  const Shape shapes[] = {{d, d}, {kv, d}, {kv, d}, {d, d}, {ff, d}, {ff, d}, {d, ff}};
  SeededRng rng(7);
  double bytes = 0.0, seconds = 0.0;
  orinsim::quant::ActivationBatchInt8 act;
  for (const Shape& s : shapes) {
    std::vector<float> w(s.out * s.in);
    for (float& v : w) v = static_cast<float>(rng.uniform() - 0.5) * 0.1f;
    const auto m = orinsim::quant::WeightMatrix::create(w, s.out, s.in, model.dtype());
    std::vector<float> x(lanes * s.in, 0.25f), y(lanes * s.out);
    std::vector<double> secs;
    for (std::size_t rep = 0; rep <= 4 * kReps; ++rep) {
      const double t0 = now_s();
      {
        Span span(tracer, "quant.matvec_multi");
        m.matvec_multi(x, y, lanes, act);
      }
      if (rep > 0) secs.push_back(now_s() - t0);
    }
    bytes += static_cast<double>(m.storage_bytes());
    seconds += median(secs);
  }
  layers.add(shape.matvec_metric, bytes / seconds / 1e9, "GB/s");
  layers.add("quant.matvec_share",
             static_cast<double>(cfg.n_layers) * seconds / (short_ms / 1e3), "frac");
}

void add_served_metrics(const ServedSamples& s, std::size_t attempted, WorkloadResult& out) {
  const TailStat tail = tail_stat(s.ttft_s);
  const double span_s = s.last_done_s - s.first_due_s;
  out.e2e.add("ttft_p50_ms", 1e3 * median(s.ttft_s), "ms");
  out.e2e.add("ttft_tail_ms", 1e3 * tail.value, "ms");
  out.e2e.add("itl_p50_ms", 1e3 * median(s.itl_s), "ms");
  out.e2e.add("itl_p99_ms", 1e3 * percentile(s.itl_s, 99.0), "ms");
  out.e2e.add("output_tok_s", static_cast<double>(s.generated_tokens) / span_s, "tok/s");
  out.e2e.add("slo_attain_frac",
              static_cast<double>(s.slo_met) / static_cast<double>(attempted), "frac");
  out.e2e.add("success_frac",
              1.0 - static_cast<double>(out.failed) / static_cast<double>(attempted), "frac");
  out.e2e.add("sim_req_per_host_s", static_cast<double>(s.completed) / span_s, "1/s");
  out.note("ttft_tail", "{\"percentile\": " + json_number(tail.percentile) +
                            ", \"samples\": " + std::to_string(tail.n) +
                            ", \"beyond\": " + std::to_string(tail.beyond) +
                            ", \"rule_met\": " + (tail.rule_met ? "true" : "false") + "}");
  const auto quantiles_ms = [](const std::vector<double>& v) {
    std::string q = "{";
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 100.0}) {
      q += (q.size() > 1 ? ", \"p" : "\"p") + json_number(p) +
           "\": " + json_number(1e3 * percentile(v, p));
    }
    return q + "}";
  };
  out.note("itl_samples", std::to_string(s.itl_s.size()));
  out.note("itl_quantiles_ms", quantiles_ms(s.itl_s));
  out.note("ttft_quantiles_ms", quantiles_ms(s.ttft_s));
}

namespace {

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size()));
  }
  return 0.0;
}

}  // namespace

double rss_mb() { return status_kb("VmRSS") / 1024.0; }
double peak_rss_mb() { return status_kb("VmHWM") / 1024.0; }

}  // namespace orinbench
