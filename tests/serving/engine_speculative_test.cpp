// Speculative decoding through the request-lifecycle engine. The contract
// under test: serving with a draft model emits exactly the token streams
// plain greedy serving emits — across weight precisions, KV storages,
// serial and pooled decode, preemption mid-round, and prefix-cache hits —
// while retiring those tokens in strictly fewer target passes.
//
// Every identity comparison runs under scalar kernels (ScopedLevel): the
// chunked verify pass and the token-at-a-time path are bit-identical only
// at the reference kernel level (the same determinism contract chunked
// prefill pins).
#include "serving/engine.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/error.h"
#include "sim/speculative_sim.h"
#include "tensor/dtype.h"
#include "tensor/simd.h"
#include "trace/timeline.h"
#include "workload/corpus.h"

namespace orinsim::serving {
namespace {

class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) : prev_(simd::active_level()) {
    simd::set_level(level);
  }
  ~ScopedLevel() { simd::set_level(prev_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  simd::Level prev_;
};

// ---------------------------------------------------------------------------
// Functional backend
// ---------------------------------------------------------------------------

class SpeculativeEngineTest : public ::testing::Test {
 protected:
  SpeculativeEngineTest()
      : corpus_(workload::generate_corpus(workload::CorpusSpec::wikitext2())),
        tokenizer_(Tokenizer::train(corpus_.text, 400)),
        pool_(corpus_, tokenizer_, 256),
        master_(MasterWeights::init_random(
            make_nano_config("llama3", tokenizer_.vocab_size()), 17)) {}

  static FunctionalEngineConfig small_config() {
    FunctionalEngineConfig cfg;
    cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
    cfg.arrivals.rate_rps = 1000.0;  // flood: all requests arrive near t=0
    cfg.arrivals.total_requests = 4;
    cfg.seq = workload::SeqConfig{24, 8, 16};
    cfg.max_concurrency = 2;
    cfg.block_tokens = 4;
    return cfg;
  }

  static void expect_same_streams(const EngineResult& got, const EngineResult& want,
                                  const char* label) {
    ASSERT_EQ(got.requests.size(), want.requests.size()) << label;
    for (std::size_t i = 0; i < want.requests.size(); ++i) {
      EXPECT_EQ(got.requests[i].prompt, want.requests[i].prompt)
          << label << " request " << i;
      EXPECT_EQ(got.requests[i].output, want.requests[i].output)
          << label << " request " << i;
    }
  }

  workload::Corpus corpus_;
  Tokenizer tokenizer_;
  workload::PromptPool pool_;
  std::shared_ptr<MasterWeights> master_;
};

// The identity grid: speculation on vs off across every weight precision
// the engine serves and both KV storages, serial and pooled. One plain
// baseline per (dtype, storage) cell; the speculative runs must reproduce
// its streams token for token.
TEST_F(SpeculativeEngineTest, BitIdenticalAcrossPrecisionsStoragesAndPools) {
  ScopedLevel scalar(simd::Level::kScalar);
  for (DType dtype : {DType::kF32, DType::kF16, DType::kI8, DType::kI4}) {
    for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
      FunctionalEngineConfig cfg = small_config();
      cfg.kv_storage = storage;
      const EngineResult plain = run_functional_continuous(master_, dtype, pool_, cfg);
      ASSERT_EQ(plain.requests.size(), 4u);
      EXPECT_EQ(plain.speculation.rounds, 0u);

      cfg.speculation.enabled = true;
      cfg.speculation.draft_tokens = 4;
      cfg.speculation.draft_dtype = DType::kI8;
      for (std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
        cfg.decode_workers = workers;
        const EngineResult spec = run_functional_continuous(master_, dtype, pool_, cfg);
        const std::string label = dtype_name(dtype) + "/" +
                                  (storage == KVStorage::kF32 ? "kvf32" : "kvi8") +
                                  "/workers=" + std::to_string(workers);
        expect_same_streams(spec, plain, label.c_str());
        // Self-drafting (same master, quantized) agrees often enough that
        // rounds actually retire multiple tokens — the grid must exercise
        // the accept path, not just the k=0 fallback.
        EXPECT_GT(spec.speculation.rounds, 0u) << label;
        EXPECT_GT(spec.speculation.accepted, 0u) << label;
        EXPECT_LT(spec.decode_steps, plain.decode_steps) << label;
      }
    }
  }

  // One low-acceptance input: the untrained master's logits are nearly flat,
  // so INT4 quantization noise flips the draft's argmax often. Rejections
  // dominate, and the stream must still be exactly greedy.
  FunctionalEngineConfig cfg = small_config();
  const EngineResult plain = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  cfg.speculation.enabled = true;
  cfg.speculation.draft_dtype = DType::kI4;
  const EngineResult spec = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  expect_same_streams(spec, plain, "FP32/kvf32/INT4 draft");
  EXPECT_GT(spec.speculation.rounds, 0u);
  EXPECT_LT(spec.speculation.acceptance_rate(), 0.9);
}

// A speculative request preempted mid-stream must recompute to the exact
// same stream: the draft branch is transient (freed within the step), so
// eviction only ever sees the lane's committed prefix, and greedy recompute
// replays it without re-running the rounds.
TEST_F(SpeculativeEngineTest, PreemptionRecomputeIsLosslessMidSpeculation) {
  ScopedLevel scalar(simd::Level::kScalar);
  FunctionalEngineConfig cfg = small_config();
  cfg.arrivals.total_requests = 6;
  cfg.max_concurrency = 3;

  // Baseline: plain greedy, unlimited pool.
  const EngineResult baseline = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  ASSERT_EQ(baseline.requests.size(), 6u);

  // Pressured speculative run: 3 lanes at 24 tokens want 18 blocks plus
  // draft branches; 12 forces eviction while rounds are in flight.
  cfg.kv_blocks = 12;
  cfg.speculation.enabled = true;
  cfg.speculation.draft_tokens = 4;
  const EngineResult spec = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  EXPECT_GT(spec.preemptions, 0u);
  EXPECT_GT(spec.speculation.rounds, 0u);
  expect_same_streams(spec, baseline, "preempted speculative");
  for (const Request& r : spec.requests) EXPECT_EQ(r.generated, 16u);
}

// Prefix-cache hits and speculative admission compose: a request admitted
// onto cached system-prompt blocks forks its draft branch off a lane whose
// prefix is shared with the cache, and both mechanisms keep the stream
// exactly greedy.
TEST_F(SpeculativeEngineTest, ComposesWithPrefixCacheHits) {
  ScopedLevel scalar(simd::Level::kScalar);
  FunctionalEngineConfig cfg;
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.rate_rps = 1000.0;
  cfg.arrivals.total_requests = 8;
  cfg.seq = workload::SeqConfig{96, 80, 16};
  cfg.max_concurrency = 1;  // one lane: every admission is its own lookup
  cfg.kv_blocks = 64;
  cfg.block_tokens = 16;
  cfg.prefix_cache = true;
  cfg.chat.system_prompts = 2;
  cfg.chat.zipf_s = 1.1;
  cfg.chat.system_tokens = 64;
  cfg.chat.user_tokens = 16;

  const EngineResult plain = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  ASSERT_EQ(plain.requests.size(), 8u);
  EXPECT_GT(plain.prefix_cache.hits, 0u);

  cfg.speculation.enabled = true;
  cfg.speculation.draft_tokens = 4;
  const EngineResult spec = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  EXPECT_GT(spec.prefix_cache.hits, 0u);
  EXPECT_GT(spec.speculation.rounds, 0u);
  expect_same_streams(spec, plain, "prefix-cache + speculation");
}

// Timeline and counter discipline: rounds emit kDraft/kVerify (never a bare
// kDecode for a speculative round), decode_steps counts target passes
// either way, and the per-round accounting identities hold exactly.
TEST_F(SpeculativeEngineTest, EmitsDraftVerifyPhasesWithExactAccounting) {
  ScopedLevel scalar(simd::Level::kScalar);
  FunctionalEngineConfig cfg = small_config();

  const EngineResult plain = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  EXPECT_EQ(plain.timeline.count(trace::Phase::kDraft), 0u);
  EXPECT_EQ(plain.timeline.count(trace::Phase::kVerify), 0u);
  EXPECT_EQ(plain.decode_steps, plain.timeline.count(trace::Phase::kDecode));

  cfg.speculation.enabled = true;
  cfg.speculation.draft_tokens = 4;
  const EngineResult spec = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  EXPECT_GT(spec.timeline.count(trace::Phase::kDraft), 0u);
  EXPECT_GT(spec.timeline.count(trace::Phase::kVerify), 0u);
  EXPECT_EQ(spec.decode_steps, spec.timeline.count(trace::Phase::kDecode) +
                                   spec.timeline.count(trace::Phase::kVerify));

  const SpeculationStats& s = spec.speculation;
  EXPECT_GT(s.rounds, 0u);
  // Each round emits its accepted prefix plus exactly one target token
  // (corrective or bonus), and verifies at most one losing proposal.
  EXPECT_EQ(s.emitted, s.accepted + s.rounds);
  EXPECT_LE(s.accepted, s.proposed);
  EXPECT_LE(s.proposed, s.accepted + s.rounds);
  // Speculation must not change how much work retires, only how fast.
  std::size_t plain_tokens = 0, spec_tokens = 0;
  for (const Request& r : plain.requests) plain_tokens += r.output.size();
  for (const Request& r : spec.requests) spec_tokens += r.output.size();
  EXPECT_EQ(spec_tokens, plain_tokens);
}

// ---------------------------------------------------------------------------
// Draft/verify properties, one request stream per draft precision
// ---------------------------------------------------------------------------

class SpeculativeTest : public SpeculativeEngineTest {
 protected:
  // small_config() on the FP32 target, served speculatively with the given
  // self-draft precision (FP32 = the target itself).
  EngineResult serve(DType draft_dtype) {
    FunctionalEngineConfig cfg = small_config();
    cfg.speculation.enabled = true;
    cfg.speculation.draft_dtype = draft_dtype;
    return run_functional_continuous(master_, DType::kF32, pool_, cfg);
  }
};

TEST_F(SpeculativeTest, OutputIdenticalToTargetGreedy) {
  // The defining property: every served stream is exactly what the target
  // model's own greedy generate() produces for that prompt.
  ScopedLevel scalar(simd::Level::kScalar);
  const EngineResult spec = serve(DType::kI8);
  Model target(master_, DType::kF32);
  for (const Request& r : spec.requests) {
    EXPECT_EQ(r.output, target.generate({r.prompt}, r.max_new_tokens).outputs[0])
        << "request " << r.id;
  }
}

TEST_F(SpeculativeTest, SelfDraftAcceptsEverything) {
  // Draft == target: every verified proposal is accepted, so each round
  // retires K accepted tokens plus the bonus (minus end-of-request clamping).
  ScopedLevel scalar(simd::Level::kScalar);
  const SpeculationStats s = serve(DType::kF32).speculation;
  EXPECT_GT(s.rounds, 0u);
  EXPECT_EQ(s.proposed, s.accepted);
  EXPECT_DOUBLE_EQ(s.acceptance_rate(), 1.0);
  EXPECT_GE(s.tokens_per_round(), 4.0);
}

TEST_F(SpeculativeTest, QuantizedDraftOfSameFamily) {
  // The realistic pairing: the INT8-quantized target drafts for itself.
  // (Untrained logits are nearly flat, so quantization noise flips argmax
  // sometimes; INT8 stays close, INT4 does not — see the grid's
  // low-acceptance input.)
  ScopedLevel scalar(simd::Level::kScalar);
  EXPECT_GT(serve(DType::kI8).speculation.acceptance_rate(), 0.5);
}

TEST_F(SpeculativeTest, ProposedCountsOnlyVerifiedDrafts) {
  // A rejection cuts the verify loop short: the drafts past it were never
  // compared, so they must not count as proposed. Per round the target
  // verifies accepted + (1 if rejected) proposals, so across the run
  // proposed <= accepted + rounds; booking all K per round would break it
  // under a draft that rejects often.
  ScopedLevel scalar(simd::Level::kScalar);
  const SpeculationStats s = serve(DType::kI4).speculation;
  EXPECT_GT(s.rounds, 1u);
  EXPECT_LT(s.accepted, s.proposed);
  EXPECT_LE(s.proposed, s.accepted + s.rounds);
}

TEST_F(SpeculativeTest, StatsAreConsistent) {
  // Per request: the first token comes from prefill, so rounds retire at
  // most generated - 1; the run's counters are the per-request sum.
  ScopedLevel scalar(simd::Level::kScalar);
  const EngineResult spec = serve(DType::kI8);
  SpeculationStats sum;
  for (const Request& r : spec.requests) {
    EXPECT_LE(r.spec.accepted, r.spec.proposed);
    EXPECT_LE(r.spec.emitted, r.generated - 1);
    EXPECT_EQ(r.spec.emitted, r.spec.accepted + r.spec.rounds);
    sum.rounds += r.spec.rounds;
    sum.proposed += r.spec.proposed;
    sum.accepted += r.spec.accepted;
    sum.emitted += r.spec.emitted;
  }
  EXPECT_EQ(spec.speculation.rounds, sum.rounds);
  EXPECT_EQ(spec.speculation.proposed, sum.proposed);
  EXPECT_EQ(spec.speculation.accepted, sum.accepted);
  EXPECT_EQ(spec.speculation.emitted, sum.emitted);
}

TEST_F(SpeculativeTest, InvalidConfigsRejected) {
  Model target(master_, DType::kF32);
  FunctionalTokenBackend::Config bc;
  bc.speculation.enabled = true;
  EXPECT_THROW(FunctionalTokenBackend b(target, bc), ContractViolation);  // no draft
  Model draft(master_, DType::kI8);
  bc.speculation.draft_tokens = 0;
  EXPECT_THROW(FunctionalTokenBackend b(target, bc, nullptr, &draft), ContractViolation);
  bc.speculation.draft_tokens = 4;
  auto other_vocab = MasterWeights::init_random(
      make_nano_config("llama3", tokenizer_.vocab_size() + 3), 4);
  Model mismatched(other_vocab, DType::kF32);
  EXPECT_THROW(FunctionalTokenBackend b(target, bc, nullptr, &mismatched),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Simulated backend
// ---------------------------------------------------------------------------

// The sim backend's calibrated acceptance model: long-run tokens per round
// tracks sim::expected_tokens_per_round (the carry makes the average exact,
// minus end-of-request clamping), and the step count shrinks accordingly
// while the same requests retire.
TEST(SimSpeculativeEngineTest, CalibratedAcceptanceMatchesExpectedTokensPerRound) {
  SimTokenBackend::Config bc;
  bc.model_key = "mistral";  // 24B target: drafting with 2.8B phi2 amortizes
  bc.dtype = DType::kF16;
  bc.max_concurrency = 4;
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.total_requests = 16;
  const std::vector<double> arrival_s = arrivals.generate();

  SimTokenBackend plain_backend(bc);
  const EngineResult plain =
      ContinuousEngine(plain_backend).run(requests_from_arrivals(arrival_s, bc.seq));

  bc.speculation.enabled = true;
  bc.speculation.draft_tokens = 4;
  bc.speculation.acceptance = 0.8;
  // A genuinely smaller draft at FP16: the speedup formula needs
  // t_draft << t_target, and on this device INT8 carries the paper's
  // quantization overhead, so F16 is the fast draft precision too.
  bc.speculation.draft_model_key = "phi2";
  bc.speculation.draft_dtype = DType::kF16;
  SimTokenBackend spec_backend(bc);
  const EngineResult spec =
      ContinuousEngine(spec_backend).run(requests_from_arrivals(arrival_s, bc.seq));

  // Same requests retire with the same token totals.
  ASSERT_EQ(spec.latencies_s.size(), plain.latencies_s.size());
  EXPECT_EQ(spec.total_tokens, plain.total_tokens);

  // Rounds emit close to E = (1 - a^(K+1)) / (1 - a); the shortfall is the
  // final round of each request clamping to the tokens it still owes.
  const double expected = sim::expected_tokens_per_round(0.8, 4);
  EXPECT_GT(spec.speculation.rounds, 0u);
  EXPECT_LE(spec.speculation.tokens_per_round(), expected + 1e-9);
  EXPECT_GT(spec.speculation.tokens_per_round(), 0.75 * expected);

  // Fewer target passes, kDraft/kVerify in the trace, legacy trace clean.
  EXPECT_LT(spec.decode_steps, plain.decode_steps);
  EXPECT_GT(spec.timeline.count(trace::Phase::kDraft), 0u);
  EXPECT_GT(spec.timeline.count(trace::Phase::kVerify), 0u);
  EXPECT_EQ(plain.timeline.count(trace::Phase::kDraft), 0u);
  EXPECT_EQ(plain.timeline.count(trace::Phase::kVerify), 0u);

  // Speculation speeds the schedule up on the weight-bound device: the
  // verify pass streams the weights once for K+1 positions.
  EXPECT_LT(spec.makespan_s, plain.makespan_s);
}

}  // namespace
}  // namespace orinsim::serving
