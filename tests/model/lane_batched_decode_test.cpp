// Lane-batched decode: Model::forward_tokens and generate() (which decodes
// through it) must be bit-identical to a per-lane forward_token loop for
// kF32/kI8/kI4 weights, composition-independent for every dtype, and
// invariant under serial-vs-pooled group sharding. These are the contracts
// that let generate() batch whichever lanes are active without changing any
// lane's tokens.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "model/transformer.h"
#include "tensor/simd.h"

namespace orinsim {
namespace {

// Restores the dispatch level on scope exit so test order never leaks state.
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

std::vector<simd::Level> levels_to_test() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::native_available()) levels.push_back(simd::Level::kNative);
  return levels;
}

TransformerConfig decode_test_config() {
  TransformerConfig c;
  c.vocab = 97;
  c.d_model = 32;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.d_ff = 64;
  c.max_seq = 64;
  c.validate();
  return c;
}

std::vector<std::vector<TokenId>> five_prompts() {
  return {{3, 9, 27},
          {81, 12, 36, 11},
          {5, 6, 7, 8, 9},
          {44, 2},
          {1, 90, 13, 60, 31, 18}};
}

Model::GenerateResult run_generate(Model& model, std::size_t workers = 0) {
  Model::GenerateOptions options;
  std::unique_ptr<ThreadPool> pool;
  if (workers > 0) {
    pool = std::make_unique<ThreadPool>(workers);
    options.pool = pool.get();
  }
  return model.generate(five_prompts(), 12, options);
}

// Greedy decode of five_prompts() through a per-lane forward_token loop: the
// reference generate()'s batched decode must reproduce. No lane reaches
// generate()'s cache limit within 12 new tokens, so every lane emits all 12.
std::vector<std::vector<TokenId>> run_looped(Model& model) {
  const auto prompts = five_prompts();
  const std::size_t new_tokens = 12;
  const TransformerConfig& cfg = model.config();
  KVCache cache(cfg, prompts.size(), cfg.max_seq, model.kv_options());
  std::vector<std::vector<TokenId>> outputs(prompts.size());
  std::vector<float> hidden(cfg.d_model), logits(cfg.vocab);
  for (std::size_t b = 0; b < prompts.size(); ++b) {
    model.prefill(prompts[b], b, cache, hidden);
    for (std::size_t step = 0; step < new_tokens; ++step) {
      model.logits_from_hidden(hidden, logits);
      const auto next = static_cast<TokenId>(kernels::argmax(logits));
      outputs[b].push_back(next);
      if (step + 1 < new_tokens) model.forward_token(next, b, cache, hidden);
    }
  }
  return outputs;
}

// forward_tokens vs a forward_token loop, directly: hidden states AND the
// cache contents a later step reads back must agree bit for bit.
void check_forward_tokens_matches_loop(DType dtype, KVStorage kv_storage,
                                       bool expect_exact) {
  const auto cfg = decode_test_config();
  auto master = MasterWeights::init_random(cfg, 61);
  Model model(master, dtype, kv_storage);
  const std::size_t lanes = 4;

  // Two independent models would be cleaner but weights are shared and
  // immutable; two caches over one model give the same isolation.
  KVCache batched_cache(cfg, lanes, cfg.max_seq);
  KVCache looped_cache(cfg, lanes, cfg.max_seq);

  // Seed each lane with a distinct short prompt, both paths via the same
  // per-token code so the starting caches are identical.
  const std::vector<std::vector<TokenId>> prompts = {
      {3, 9, 27}, {81, 12}, {5, 6, 7, 8}, {44}};
  std::vector<float> hidden(cfg.d_model);
  for (std::size_t b = 0; b < lanes; ++b) {
    for (TokenId tok : prompts[b]) {
      model.forward_token(tok, b, batched_cache, hidden);
      model.forward_token(tok, b, looped_cache, hidden);
    }
  }

  // Three decode steps, batched vs looped, feeding each path its own output.
  InferenceWorkspace ws(cfg);
  std::vector<TokenId> batched_tokens = {10, 20, 30, 40};
  std::vector<TokenId> looped_tokens = batched_tokens;
  const std::vector<std::size_t> seqs = {0, 1, 2, 3};
  for (int step = 0; step < 3; ++step) {
    std::vector<float> batched_rows(lanes * cfg.d_model);
    model.forward_tokens(batched_tokens, seqs, batched_cache, batched_rows, ws);
    std::vector<float> batched_logits(lanes * cfg.vocab);
    model.logits_from_hidden_rows(batched_rows, batched_logits, lanes);

    for (std::size_t t = 0; t < lanes; ++t) {
      std::vector<float> looped_hidden(cfg.d_model);
      model.forward_token(looped_tokens[t], seqs[t], looped_cache, looped_hidden);
      std::vector<float> looped_logits(cfg.vocab);
      model.logits_from_hidden(looped_hidden, looped_logits);

      for (std::size_t i = 0; i < cfg.d_model; ++i) {
        const float batched = batched_rows[t * cfg.d_model + i];
        if (expect_exact) {
          EXPECT_EQ(batched, looped_hidden[i])
              << "step=" << step << " t=" << t << " i=" << i;
        } else {
          EXPECT_NEAR(batched, looped_hidden[i], 1e-3f)
              << "step=" << step << " t=" << t << " i=" << i;
        }
      }
      // Greedy argmax from each path's logits picks the next token.
      std::size_t batched_arg = 0, looped_arg = 0;
      for (std::size_t v = 1; v < cfg.vocab; ++v) {
        if (batched_logits[t * cfg.vocab + v] >
            batched_logits[t * cfg.vocab + batched_arg]) {
          batched_arg = v;
        }
        if (looped_logits[v] > looped_logits[looped_arg]) looped_arg = v;
      }
      if (expect_exact) {
        EXPECT_EQ(batched_arg, looped_arg) << "step=" << step << " t=" << t;
      }
      batched_tokens[t] = static_cast<TokenId>(batched_arg);
      looped_tokens[t] = static_cast<TokenId>(looped_arg);
    }
  }
}

TEST(LaneBatchedDecodeTest, ForwardTokensMatchesLoopBitwiseF32) {
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    check_forward_tokens_matches_loop(DType::kF32, KVStorage::kF32, true);
  }
}

TEST(LaneBatchedDecodeTest, ForwardTokensMatchesLoopBitwiseInt8QuantizedKv) {
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    check_forward_tokens_matches_loop(DType::kI8, KVStorage::kI8, true);
  }
}

TEST(LaneBatchedDecodeTest, ForwardTokensMatchesLoopBitwiseInt4) {
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    check_forward_tokens_matches_loop(DType::kI4, KVStorage::kI8, true);
  }
}

TEST(LaneBatchedDecodeTest, ForwardTokensMatchesLoopF16) {
  // kF16 is bit-exact at kScalar; at kNative the multi path reorders fp32
  // accumulation (matmul-style row dequant), so only closeness is promised.
  {
    ScopedLevel scoped(simd::Level::kScalar);
    check_forward_tokens_matches_loop(DType::kF16, KVStorage::kF32, true);
  }
  if (simd::native_available()) {
    ScopedLevel scoped(simd::Level::kNative);
    check_forward_tokens_matches_loop(DType::kF16, KVStorage::kF32, false);
  }
}

// Composition independence, directly: lane 2 decoded alone (a one-lane
// forward_tokens call) and inside a four-lane batch must agree bit for bit,
// hidden state and cache, for every dtype at every level. A one-lane batch
// still runs the lanes kernels; fp16 at kNative would differ if it fell back
// to the one-row matvec.
TEST(LaneBatchedDecodeTest, ForwardTokensCompositionIndependentAllDtypes) {
  const auto cfg = decode_test_config();
  auto master = MasterWeights::init_random(cfg, 67);
  const std::size_t lanes = 4, lane = 2;
  const std::vector<std::vector<TokenId>> prompts = {{3, 9, 27}, {81, 12}, {5, 6, 7, 8}, {44}};
  const std::vector<std::size_t> seqs = {0, 1, 2, 3};
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (DType dtype : {DType::kF32, DType::kF16, DType::kI8, DType::kI4}) {
      for (KVStorage kv : {KVStorage::kF32, KVStorage::kI8}) {
        Model model(master, dtype, kv);
        KVCache batch_cache(cfg, lanes, cfg.max_seq, kv), alone_cache(cfg, lanes, cfg.max_seq, kv);
        std::vector<float> hidden(cfg.d_model);
        for (std::size_t b = 0; b < lanes; ++b) {
          for (TokenId tok : prompts[b]) {
            model.forward_token(tok, b, batch_cache, hidden);
            model.forward_token(tok, b, alone_cache, hidden);
          }
        }
        InferenceWorkspace ws(cfg);
        std::vector<float> batch_rows(lanes * cfg.d_model), alone_row(cfg.d_model);
        const std::string where = std::string(simd::level_name(level)) + " " +
                                  dtype_name(dtype) + " kv=" +
                                  std::to_string(static_cast<int>(kv));
        for (TokenId step : {10, 20, 30}) {
          const std::vector<TokenId> tokens(lanes, step);
          model.forward_tokens(tokens, seqs, batch_cache, batch_rows, ws);
          model.forward_tokens(std::span<const TokenId>(&tokens[lane], 1),
                               std::span<const std::size_t>(&seqs[lane], 1), alone_cache,
                               alone_row, ws);
          for (std::size_t i = 0; i < cfg.d_model; ++i) {
            ASSERT_EQ(batch_rows[lane * cfg.d_model + i], alone_row[i])
                << where << " step=" << step << " i=" << i;
          }
        }
        const std::size_t len = batch_cache.seq_len(lane);
        ASSERT_EQ(alone_cache.seq_len(lane), len);
        std::vector<float> s1(cfg.kv_dim()), s2(cfg.kv_dim());
        for (std::size_t l = 0; l < cfg.n_layers; ++l) {
          for (std::size_t p = 0; p < len; ++p) {
            const auto k1 = batch_cache.key(l, lane, p, s1);
            const auto k2 = alone_cache.key(l, lane, p, s2);
            const auto v1 = batch_cache.value(l, lane, p, s1);
            const auto v2 = alone_cache.value(l, lane, p, s2);
            for (std::size_t i = 0; i < cfg.kv_dim(); ++i) {
              ASSERT_EQ(k1[i], k2[i]) << where << " key l=" << l << " p=" << p;
              ASSERT_EQ(v1[i], v2[i]) << where << " value l=" << l << " p=" << p;
            }
          }
        }
      }
    }
  }
}

// forward_tokens writes every lane's hidden state: a [d_model] or empty span
// (accepted by forward_chunk) would drop lanes, so it is rejected.
TEST(LaneBatchedDecodeTest, ForwardTokensRequiresEveryLaneRow) {
  const auto cfg = decode_test_config();
  Model model(MasterWeights::init_random(cfg, 61), DType::kF32);
  KVCache cache(cfg, 2, cfg.max_seq);
  InferenceWorkspace ws(cfg);
  const std::vector<TokenId> tokens = {1, 2};
  const std::vector<std::size_t> seqs = {0, 1};
  std::vector<float> last_row(cfg.d_model);
  EXPECT_THROW(model.forward_tokens(tokens, seqs, cache, last_row, ws), ContractViolation);
  EXPECT_THROW(model.forward_tokens(tokens, seqs, cache, {}, ws), ContractViolation);
}

// The full generate path: its lane-batched decode must reproduce the
// per-lane forward_token loop's outputs token for token.
TEST(LaneBatchedDecodeTest, GenerateBatchedMatchesLoopedAllDtypes) {
  const auto cfg = decode_test_config();
  struct Case {
    DType dtype;
    KVStorage kv;
  };
  const Case cases[] = {{DType::kF32, KVStorage::kF32},
                        {DType::kI8, KVStorage::kI8},
                        {DType::kI4, KVStorage::kI8}};
  for (const Case& c : cases) {
    auto master = MasterWeights::init_random(cfg, 67);
    Model model(master, c.dtype, c.kv);
    for (simd::Level level : levels_to_test()) {
      ScopedLevel scoped(level);
      EXPECT_EQ(run_generate(model).outputs, run_looped(model))
          << dtype_name(c.dtype) << " @ " << simd::level_name(level);
    }
  }
}

TEST(LaneBatchedDecodeTest, GenerateBatchedMatchesLoopedF16Scalar) {
  ScopedLevel scoped(simd::Level::kScalar);
  const auto cfg = decode_test_config();
  auto master = MasterWeights::init_random(cfg, 71);
  Model model(master, DType::kF16, KVStorage::kF32);
  EXPECT_EQ(run_generate(model).outputs, run_looped(model));
}

// Composition independence at the generate level: pooled batched decode
// shards active lanes into contiguous groups whose sizes depend on the
// worker count; outputs must not.
// fp16 runs at the active level: its native lanes kernel differs from the
// one-row matvec, and 8 workers over 5 lanes puts every lane in a group of
// one.
TEST(LaneBatchedDecodeTest, BatchedSerialVsPooledBitIdentical) {
  const auto cfg = decode_test_config();
  auto master = MasterWeights::init_random(cfg, 73);
  for (DType dtype : {DType::kI4, DType::kF16}) {
    Model model(master, dtype, dtype == DType::kI4 ? KVStorage::kI8 : KVStorage::kF32);
    const auto serial = run_generate(model, 0);
    ASSERT_EQ(serial.outputs.size(), 5u);
    for (std::size_t workers : {1u, 2u, 3u, 8u}) {
      const auto pooled = run_generate(model, workers);
      EXPECT_EQ(pooled.outputs, serial.outputs)
          << dtype_name(dtype) << " workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace orinsim
