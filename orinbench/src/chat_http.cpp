// chat_http: the full daemon path. An in-process server::Server +
// EngineHost over a FunctionalTokenBackend with fp16 weights on a 512-wide
// llama3 block (the weights do not fit in L2), prefix cache on, driven by an
// open-loop Poisson client over at most four concurrent connections with
// streaming SSE completions, while /metrics is scraped on a fixed schedule.
// Prompts are chat prompts: Zipfian shared system prompts
// plus per-user suffixes, 7/8 of each prompt shared. Outputs are short, so
// context stays short and attention work stays small: the server, engine
// admission, prefix-cache hits and the fp16 matvec carry the load.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "http_client.h"
#include "loadgen.h"
#include "server/engine_host.h"
#include "server/server.h"
#include "workloads.h"
#include "workload/corpus.h"

namespace orinbench {

using orinsim::TokenId;
namespace serving = orinsim::serving;
namespace server = orinsim::server;

namespace {

// Low enough that most requests find the engine idle: the host holds the
// engine lock for a whole busy period, so a request arriving mid-batch waits
// for it to drain, and above ~1.2/s those waits reach the median.
constexpr double kRateRps = 1.0;
constexpr std::size_t kClients = 4;     // concurrent connections (nproc)
// One engine lane. The host admits new requests only between busy periods,
// so four lanes batched just the requests that had piled up behind its
// lock, and whether a run had such a pile decided its ITL p99 (14 vs 22 ms).
constexpr std::size_t kLanes = 1;
constexpr std::size_t kMaxTokens = 24;  // short chat answers
constexpr double kScrapeEvery_s = 0.5;
constexpr double kTtftSlo_s = 0.5;
constexpr double kItlSlo_s = 0.06;
const ChatShape kShape{4, 1.1, 224, 32};

// Everything a user builds before the first request: tokenizer, weights,
// the fp16 model, the backend, the engine host and the listening server.
struct ChatStack {
  orinsim::Tokenizer tokenizer;
  std::vector<TokenId> words;
  std::shared_ptr<const orinsim::MasterWeights> master;
  std::unique_ptr<orinsim::Model> model;
  serving::FunctionalTokenBackend::Config backend_config;
  std::unique_ptr<serving::FunctionalTokenBackend> backend;
  std::unique_ptr<server::EngineHost> host;
  std::unique_ptr<server::Server> server;
};

std::unique_ptr<ChatStack> build_stack() {
  auto s = std::make_unique<ChatStack>();
  const orinsim::workload::Corpus corpus =
      orinsim::workload::generate_corpus(orinsim::workload::CorpusSpec::wikitext2());
  s->tokenizer = orinsim::Tokenizer::train(corpus.text, 400);
  s->words = word_stream(s->tokenizer, corpus);
  // The 512-wide llama3 block of bench_decode_throughput, one layer deep:
  // its 6.8 MB of fp16 weights still miss L2, and at ~10 ms a token a run
  // holds enough requests for stable percentiles.
  orinsim::TransformerConfig cfg = orinsim::make_nano_config("llama3", s->tokenizer.vocab_size());
  cfg.name = "llama3-wide";
  cfg.d_model = 512;
  cfg.d_ff = 1792;
  cfg.n_layers = 1;
  cfg.validate();
  s->master = orinsim::MasterWeights::init_random(cfg, 7);
  s->model = std::make_unique<orinsim::Model>(s->master, orinsim::DType::kF16);
  s->backend_config.max_lanes = kLanes;
  s->backend_config.max_seq = cfg.max_seq;
  s->backend_config.prefix_cache = true;
  // Room for the hot system prompts beside the active lane; with the
  // one-lane default (64 blocks) LRU eviction reached them at random.
  s->backend_config.kv_blocks = 256;
  s->backend = std::make_unique<serving::FunctionalTokenBackend>(*s->model, s->backend_config);
  server::EngineHost::Config host_config;
  host_config.max_new_tokens_cap = 256;
  s->host = std::make_unique<server::EngineHost>(*s->backend, s->tokenizer, cfg.max_seq,
                                                 host_config);
  server::ServerConfig server_config;
  server_config.model_name = cfg.name;
  s->server = std::make_unique<server::Server>(*s->host, server_config);
  std::string error;
  if (!s->server->start(&error)) throw std::runtime_error("server start: " + error);
  return s;
}

std::string text_of(const orinsim::Tokenizer& tok, const std::vector<TokenId>& prompt) {
  std::string text = tok.decode(prompt);
  if (tok.encode(text) != prompt) throw std::runtime_error("prompt text does not round-trip");
  return text;
}

// Value of an unlabelled Prometheus sample, or -1.
double prom_value(const std::string& body, const std::string& name) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::strtod(line.c_str() + name.size() + 1, nullptr);
  }
  return -1.0;
}

// Samples /metrics every kScrapeEvery_s until stopped.
class Scraper {
 public:
  Scraper(std::uint16_t port, double start_s, Tracer& tracer)
      : port_(port), start_s_(start_s), tracer_(tracer), thread_([this] { loop(); }) {}
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> latencies_s;
  double kv_peak_frac = 0.0;
  std::size_t failures = 0;

 private:
  void loop() {
    double next = start_s_;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::duration<double>(std::max(0.0, next - now_s()));
        if (cv_.wait_until(lock, deadline, [this] { return stop_; })) return;
      }
      const double t0 = now_s();
      GetResult g;
      {
        Span span(tracer_, "http.metrics");
        g = http_get(port_, "/metrics");
      }
      latencies_s.push_back(now_s() - t0);
      if (g.status != 200) {
        ++failures;
      } else {
        const double used = prom_value(g.body, "orinsim_kv_blocks_used");
        const double total = prom_value(g.body, "orinsim_kv_blocks_total");
        if (total > 0.0) kv_peak_frac = std::max(kv_peak_frac, used / total);
      }
      next += kScrapeEvery_s;
    }
  }

  std::uint16_t port_;
  double start_s_;
  Tracer& tracer_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after every member it reads
};

}  // namespace

WorkloadResult run_chat_http(const RunOptions& opt, Tracer& tracer) {
  WorkloadResult out;
  std::vector<double> setup_s;
  std::unique_ptr<ChatStack> stack;
  for (std::size_t rep = 0; rep < opt.setup_reps; ++rep) {
    stack.reset();
    const double t0 = now_s();
    Span span(tracer, "setup");
    stack = build_stack();
    setup_s.push_back(now_s() - t0);
  }
  ChatStack& s = *stack;
  const std::uint16_t port = s.server->port();

  const std::size_t n = static_cast<std::size_t>(std::llround(kRateRps * opt.seconds));
  const std::vector<double> offsets = poisson_schedule(kArrivalTraceSeed, kRateRps, n);
  const ChatPrompts chat = chat_prompts(s.words, derive_seed(opt.seed, 2), n, kShape);
  std::vector<std::string> texts;
  for (const auto& p : chat.prompts) texts.push_back(text_of(s.tokenizer, p));

  // Warm-up, not measured: each system prompt once (a long-running daemon
  // has its hot system prompts cached), which also starts the kernel
  // threads.
  {
    Span span(tracer, "warmup");
    const std::vector<TokenId> suffix(chat.prompts[0].end() - kShape.user_tokens,
                                      chat.prompts[0].end());
    for (const auto& sys : chat.system) {
      std::vector<TokenId> p = sys;
      p.insert(p.end(), suffix.begin(), suffix.end());
      const CompletionResult r = stream_completion(port, text_of(s.tokenizer, p), 2, tracer, -1);
      if (r.status != 200 || !r.error.empty()) throw std::runtime_error("warm-up failed");
    }
  }
  const server::EngineHost::Metrics before = s.host->metrics();
  const double rss_warm = rss_mb();

  // Open loop: request i is due at start + offsets[i] whether or not
  // earlier ones finished; a client takes the next request when free, so a
  // stall shows as lateness and as latency counted from the due time.
  std::vector<double> due(n);
  std::vector<CompletionResult> results(n);
  std::vector<double> lateness(n, 0.0);
  const double start = now_s() + 0.05;
  for (std::size_t i = 0; i < n; ++i) due[i] = start + offsets[i];
  {
    Scraper scraper(port, start, tracer);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        while (true) {
          const std::size_t i = next.fetch_add(1);
          if (i >= n) return;
          std::this_thread::sleep_for(std::chrono::duration<double>(due[i] - now_s()));
          lateness[i] = std::max(0.0, now_s() - due[i]);
          Span span(tracer, "client.request", static_cast<std::int64_t>(i));
          try {
            results[i] = stream_completion(port, texts[i], kMaxTokens, tracer,
                                           static_cast<std::int64_t>(i));
          } catch (const std::exception& e) {
            results[i].error = e.what();  // counted as a failed request
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    scraper.stop();
    const double peak = peak_rss_mb();
    const server::EngineHost::Metrics after = s.host->metrics();
    const double rss_end = rss_mb();
    s.server->shutdown();

    // Reference: offline greedy completions from identically built
    // backends (one worker per core, one kernel thread each).
    std::vector<std::vector<TokenId>> reference;
    {
      Span span(tracer, "reference");
      reference = offline_greedy(*s.model, s.backend_config, chat.prompts, kMaxTokens);
    }

    ServedSamples samples;
    samples.first_due_s = due.front();
    std::size_t succeeded = 0, refused = 0, failed = 0, wrong = 0;
    std::vector<double> head_s;
    for (std::size_t i = 0; i < n; ++i) {
      const CompletionResult& r = results[i];
      if (r.status == 429 || r.status == 503) {
        ++refused;
        continue;
      }
      if (r.status != 200 || !r.error.empty() || r.token_times.size() != kMaxTokens ||
          r.usage_completion_tokens != kMaxTokens) {
        ++failed;
        out.fail_check("request " + std::to_string(i) + " failed: status " +
                       std::to_string(r.status) + " " + r.error);
        continue;
      }
      std::string expect;
      for (TokenId t : reference[i]) expect += s.tokenizer.token_text(t);
      if (r.text != expect) {
        ++wrong;
        out.fail_check("request " + std::to_string(i) + " differs from its offline completion");
        continue;
      }
      ++succeeded;
      head_s.push_back(r.head_s - r.send_s);
      const double ttft = r.token_times.front() - due[i];
      samples.ttft_s.push_back(ttft);
      for (std::size_t k = 1; k < r.token_times.size(); ++k) {
        samples.itl_s.push_back(r.token_times[k] - r.token_times[k - 1]);
      }
      const double mean_itl = (r.token_times.back() - r.token_times.front()) /
                              static_cast<double>(r.token_times.size() - 1);
      if (ttft <= kTtftSlo_s && mean_itl <= kItlSlo_s) ++samples.slo_met;
      samples.generated_tokens += r.token_times.size();
      samples.last_done_s = std::max(samples.last_done_s, r.token_times.back());
    }
    samples.completed = succeeded;

    // Accounting: every request sent is exactly one of succeeded, failed
    // (wrong output included) or refused, and the server agrees.
    if (succeeded + failed + wrong + refused != n) out.fail_check("sent != succeeded+failed+refused");
    if (after.completed - before.completed != succeeded + wrong) {
      out.fail_check("server completed count disagrees with the client");
    }
    if (after.rejected - before.rejected > refused) out.fail_check("server rejected more than refused");
    if (scraper.failures > 0) out.fail_check("a /metrics scrape failed");

    out.attempted = n;
    out.failed = failed + wrong + refused;
    out.lateness_s = lateness;
    if (samples.ttft_s.empty()) throw std::runtime_error("chat_http: no request succeeded");
    add_served_metrics(samples, n, out);
    out.e2e.add("peak_rss_mb", peak, "MB");
    out.e2e.add("setup_s", median(setup_s), "s");

    const auto delta = [](std::size_t a, std::size_t b) { return static_cast<double>(a - b); };
    out.layers.add("server.metrics_scrape_p50_ms", 1e3 * median(scraper.latencies_s), "ms");
    out.layers.add("server.metrics_scrape_p99_ms", 1e3 * percentile(scraper.latencies_s, 99.0),
                   "ms");
    out.layers.add("server.head_p50_ms", 1e3 * median(head_s), "ms");
    out.layers.add("server.refused_frac", static_cast<double>(refused) / static_cast<double>(n),
                   "frac");
    out.layers.add("server.rss_growth_mb", rss_end - rss_warm, "MB");
    const double decode_steps = delta(after.decode_steps, before.decode_steps);
    const double completed = delta(after.completed, before.completed);
    // Each completion's first token comes from its prefill wave; every other
    // token from a decode step, one per active request.
    out.layers.add("serving.batch_mean",
                   decode_steps > 0.0
                       ? (delta(after.completion_tokens, before.completion_tokens) - completed) /
                             decode_steps
                       : 0.0,
                   "requests");
    out.layers.add("serving.kv_peak_frac", scraper.kv_peak_frac, "frac");
    out.layers.add("serving.preemptions", delta(after.preemptions, before.preemptions), "count");
    const auto& pa = after.prefix_cache;
    const auto& pb = before.prefix_cache;
    out.layers.add("serving.prefix_hit_rate",
                   delta(pa.lookups, pb.lookups) > 0.0
                       ? delta(pa.hits, pb.hits) / delta(pa.lookups, pb.lookups)
                       : 0.0,
                   "frac");
    out.layers.add("serving.prefix_token_frac",
                   delta(pa.hit_tokens, pb.hit_tokens) /
                       std::max(1.0, delta(after.prompt_tokens, before.prompt_tokens)),
                   "frac");
    out.layers.add("serving.prefix_evicted_blocks", delta(pa.evicted_blocks, pb.evicted_blocks),
                   "count");
    out.note("scrapes", std::to_string(scraper.latencies_s.size()));
    out.note("server_threads", "{\"accept\": 1, \"engine\": 1, \"connections_max\": 64}");
    out.note("client_threads", std::to_string(kClients + 1));
  }

  if (tracer.enabled()) {
    ReplayShape shape;
    shape.lanes = kLanes;
    shape.prefill_tokens = kShape.system_tokens + kShape.user_tokens;
    shape.prefill_metric = "model.prefill_tok_s.short";
    shape.ctx_long = kShape.system_tokens + kShape.user_tokens + kMaxTokens;
    shape.matvec_metric = "quant.matvec_gbps.fp16";
    replay_model_layers(*s.model, shape, tracer, out.layers);
  }
  return out;
}

}  // namespace orinbench
