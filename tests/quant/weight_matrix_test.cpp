#include "quant/weight_matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace orinsim::quant {
namespace {

std::vector<float> random_weights(std::size_t n, Rng& rng, double scale = 0.1) {
  std::vector<float> w(n);
  for (auto& v : w) v = static_cast<float>(rng.normal(0.0, scale));
  return w;
}

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

class WeightMatrixParamTest : public ::testing::TestWithParam<DType> {};

TEST_P(WeightMatrixParamTest, MatvecCloseToFp32Reference) {
  Rng rng(11);
  const std::size_t out_f = 40, in_f = 64;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  auto x = random_weights(in_f, rng, 1.0);
  std::vector<float> out(out_f), ref(out_f);
  wm.matvec(x, out);
  kernels::matvec(w, x, ref, out_f, in_f);
  // Tolerance scales with precision.
  double tol = 1e-4;
  if (GetParam() == DType::kF16) tol = 5e-3;
  if (GetParam() == DType::kI8) tol = 5e-2;
  if (GetParam() == DType::kI4) tol = 0.4;
  for (std::size_t r = 0; r < out_f; ++r) EXPECT_NEAR(out[r], ref[r], tol);
}

TEST_P(WeightMatrixParamTest, MatmulMatchesPerTokenMatvec) {
  Rng rng(12);
  const std::size_t out_f = 24, in_f = 32, tokens = 5;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  auto x = random_weights(tokens * in_f, rng, 1.0);
  std::vector<float> y(tokens * out_f), y_ref(tokens * out_f);
  wm.matmul(x, y, tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    wm.matvec(std::span<const float>(x.data() + t * in_f, in_f),
              std::span<float>(y_ref.data() + t * out_f, out_f));
  }
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-5f);
}

TEST_P(WeightMatrixParamTest, DequantizeRowCloseToSource) {
  Rng rng(13);
  const std::size_t out_f = 8, in_f = 32;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  std::vector<float> rec(in_f);
  double tol = 1e-7;
  if (GetParam() == DType::kF16) tol = 1e-3;
  if (GetParam() == DType::kI8) tol = 5e-3;
  if (GetParam() == DType::kI4) tol = 5e-2;
  for (std::size_t r = 0; r < out_f; ++r) {
    wm.dequantize_row(r, rec);
    for (std::size_t c = 0; c < in_f; ++c) EXPECT_NEAR(rec[c], w[r * in_f + c], tol);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, WeightMatrixParamTest,
                         ::testing::Values(DType::kF32, DType::kF16, DType::kI8,
                                           DType::kI4),
                         [](const auto& info) { return dtype_name(info.param); });

// The matvec_multi contract: lane t is bit-identical to matvec(X[t]) at the
// active level for kF32/kI8/kI4, and batch-composition independent for every
// dtype. kF16 only bit-matches the single matvec at kScalar (the native
// multi path dequantizes each row once and reorders the fp32 accumulation).
TEST_P(WeightMatrixParamTest, MatvecMultiMatchesPerLaneMatvec) {
  Rng rng(21);
  const std::size_t out_f = 40, in_f = 64;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (std::size_t lanes : {1u, 3u, 8u, 9u}) {
      auto x = random_weights(lanes * in_f, rng, 1.0);
      std::vector<float> y(lanes * out_f), ref(lanes * out_f);
      ActivationBatchInt8 act;
      wm.matvec_multi(x, y, lanes, act);
      for (std::size_t t = 0; t < lanes; ++t) {
        wm.matvec(std::span<const float>(x.data() + t * in_f, in_f),
                  std::span<float>(ref.data() + t * out_f, out_f));
      }
      const bool exact =
          GetParam() != DType::kF16 || level == simd::Level::kScalar;
      for (std::size_t i = 0; i < y.size(); ++i) {
        if (exact) {
          EXPECT_EQ(y[i], ref[i]) << simd::level_name(level) << " lanes=" << lanes
                                  << " i=" << i;
        } else {
          EXPECT_NEAR(y[i], ref[i], 1e-3f)
              << simd::level_name(level) << " lanes=" << lanes << " i=" << i;
        }
      }
    }
  }
}

// Batch-composition independence holds for EVERY dtype (including kF16):
// a lane's value never depends on which other lanes share the batch.
TEST_P(WeightMatrixParamTest, MatvecMultiIsCompositionIndependent) {
  Rng rng(22);
  const std::size_t out_f = 24, in_f = 64, lanes = 6;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    auto x = random_weights(lanes * in_f, rng, 1.0);
    std::vector<float> full(lanes * out_f);
    ActivationBatchInt8 act;
    wm.matvec_multi(x, full, lanes, act);
    // Re-run each lane as a singleton batch.
    for (std::size_t t = 0; t < lanes; ++t) {
      std::vector<float> alone(out_f);
      ActivationBatchInt8 act1;
      wm.matvec_multi(std::span<const float>(x.data() + t * in_f, in_f), alone, 1,
                      act1);
      for (std::size_t r = 0; r < out_f; ++r) {
        EXPECT_EQ(full[t * out_f + r], alone[r])
            << simd::level_name(level) << " t=" << t << " r=" << r;
      }
    }
  }
}

TEST_P(WeightMatrixParamTest, MatvecQkvMultiMatchesSeparateMatvecMulti) {
  Rng rng(23);
  const std::size_t d = 64, kv = 32, lanes = 5;
  auto wq_w = random_weights(d * d, rng);
  auto wk_w = random_weights(kv * d, rng);
  auto wv_w = random_weights(kv * d, rng);
  const auto wq = WeightMatrix::create(wq_w, d, d, GetParam());
  const auto wk = WeightMatrix::create(wk_w, kv, d, GetParam());
  const auto wv = WeightMatrix::create(wv_w, kv, d, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    auto x = random_weights(lanes * d, rng, 1.0);
    std::vector<float> q(lanes * d), k(lanes * kv), v(lanes * kv);
    ActivationBatchInt8 act;
    matvec_qkv_multi(wq, wk, wv, x, q, k, v, lanes, act);
    std::vector<float> q_ref(lanes * d), k_ref(lanes * kv), v_ref(lanes * kv);
    ActivationBatchInt8 act_ref;
    wq.matvec_multi(x, q_ref, lanes, act_ref);
    wk.matvec_multi(x, k_ref, lanes, act_ref);
    wv.matvec_multi(x, v_ref, lanes, act_ref);
    // The fused path shares one activation quantization across Q/K/V;
    // quantization is deterministic, so results are bit-identical.
    for (std::size_t i = 0; i < q.size(); ++i) EXPECT_EQ(q[i], q_ref[i]) << i;
    for (std::size_t i = 0; i < k.size(); ++i) EXPECT_EQ(k[i], k_ref[i]) << i;
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], v_ref[i]) << i;
  }
}

TEST(WeightMatrixTest, StorageShrinksWithPrecision) {
  Rng rng(14);
  const std::size_t out_f = 64, in_f = 128;
  auto w = random_weights(out_f * in_f, rng);
  const auto f32 = WeightMatrix::create(w, out_f, in_f, DType::kF32);
  const auto f16 = WeightMatrix::create(w, out_f, in_f, DType::kF16);
  const auto i8 = WeightMatrix::create(w, out_f, in_f, DType::kI8);
  const auto i4 = WeightMatrix::create(w, out_f, in_f, DType::kI4);
  EXPECT_EQ(f32.storage_bytes(), out_f * in_f * 4);
  EXPECT_EQ(f16.storage_bytes(), out_f * in_f * 2);
  EXPECT_LT(i8.storage_bytes(), f16.storage_bytes());
  EXPECT_LT(i4.storage_bytes(), i8.storage_bytes());
}

TEST(WeightMatrixTest, OutlierColumnsReportedForInt8) {
  Rng rng(15);
  const std::size_t out_f = 16, in_f = 64;
  auto w = random_weights(out_f * in_f, rng, 0.05);
  w[10] = 3.0f;  // column 10 becomes an outlier under the 6-sigma rule
  const auto i8 = WeightMatrix::create(w, out_f, in_f, DType::kI8, 6.0f);
  EXPECT_GE(i8.outlier_column_count(), 1u);
  const auto f16 = WeightMatrix::create(w, out_f, in_f, DType::kF16);
  EXPECT_EQ(f16.outlier_column_count(), 0u);
}

TEST(WeightMatrixTest, ShapeMismatchRejected) {
  std::vector<float> w(10, 0.0f);
  EXPECT_THROW(WeightMatrix::create(w, 3, 4, DType::kF32), ContractViolation);
}

// Every row-sharded kernel, run once; returns all outputs in a fixed order.
// Both row counts end in a partial kRowTile tile, every single-token kernel
// is large enough to shard (kMinParallelWork), and 11 tokens cover
// gemm_nt's 8-token block plus its tail.
std::deque<std::vector<float>> run_row_sharded_kernels(ThreadPool* pool) {
  constexpr std::size_t kRows = 8 * kRowTile + 5, kKvRows = 4 * kRowTile + 6, kIn = 2048;
  static_assert(kKvRows * kIn >= kMinParallelWork);
  constexpr std::size_t kLanes = 3, kTokens = 11, kGemmN = 7;
  Rng rng(42);
  std::vector<float> w = random_weights(kRows * kIn, rng);
  for (std::size_t r = 0; r < kRows; r += 9) w[r * kIn + 5] = 3.0f;  // int8 outlier column
  const std::vector<float> wk = random_weights(kKvRows * kIn, rng);
  const std::vector<float> wv = random_weights(kKvRows * kIn, rng);
  const std::vector<float> x = random_weights(kTokens * kIn, rng, 1.0);
  const std::vector<float> b = random_weights(kIn * kGemmN, rng);
  const std::span<const float> x1(x.data(), kIn), x_lanes(x.data(), kLanes * kIn);

  std::deque<std::vector<float>> out;  // a deque keeps earlier buffers in place
  auto buffer = [&](std::size_t n) -> std::vector<float>& {
    out.emplace_back(n, 0.0f);
    return out.back();
  };
  for (DType dt : {DType::kF32, DType::kF16, DType::kI8, DType::kI4}) {
    const WeightMatrix m = WeightMatrix::create(w, kRows, kIn, dt);
    const WeightMatrix mk = WeightMatrix::create(wk, kKvRows, kIn, dt);
    const WeightMatrix mv = WeightMatrix::create(wv, kKvRows, kIn, dt);
    ActivationInt8 act;
    ActivationBatchInt8 acts;
    m.matvec(x1, buffer(kRows), pool);
    m.matvec(x1, buffer(kRows), act, pool);
    m.matmul(x, buffer(kTokens * kRows), kTokens, pool);
    m.matvec_multi(x_lanes, buffer(kLanes * kRows), kLanes, acts, pool);
    auto& q1 = buffer(kRows);
    auto& k1 = buffer(kKvRows);
    auto& v1 = buffer(kKvRows);
    matvec_qkv(m, mk, mv, x1, q1, k1, v1, act, pool);
    auto& qt = buffer(kTokens * kRows);
    auto& kt = buffer(kTokens * kKvRows);
    auto& vt = buffer(kTokens * kKvRows);
    matmul_qkv(m, mk, mv, x, qt, kt, vt, kTokens, acts, pool);
    auto& ql = buffer(kLanes * kRows);
    auto& kl = buffer(kLanes * kKvRows);
    auto& vl = buffer(kLanes * kKvRows);
    matvec_qkv_multi(m, mk, mv, x_lanes, ql, kl, vl, kLanes, acts, pool);
  }
  kernels::matvec(w, x1, buffer(kRows), kRows, kIn, pool);
  kernels::matvec_multi(w, x_lanes, buffer(kLanes * kRows), kRows, kIn, kLanes, pool);
  kernels::gemm(w, b, buffer(kRows * kGemmN), kRows, kIn, kGemmN, pool);
  simd::gemm_nt_f32(x.data(), w.data(), buffer(kTokens * kRows).data(), kTokens, kIn, kRows,
                    pool);
  return out;
}

// The one-pool rule's determinism contract: sharding output rows over any
// pool — or running inline inside an outer lane shard — never changes a bit.
TEST(RowShardingTest, EveryKernelIsBitIdenticalForAnyPool) {
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    SCOPED_TRACE(simd::level_name(level));
    const std::deque<std::vector<float>> serial = run_row_sharded_kernels(nullptr);
    for (std::size_t threads : {1, 2, 4}) {
      SCOPED_TRACE("pool of " + std::to_string(threads));
      ThreadPool pool(threads);
      EXPECT_TRUE(run_row_sharded_kernels(&pool) == serial);
      std::vector<std::deque<std::vector<float>>> lanes(3);
      pool.parallel_for(0, lanes.size(), [&](std::size_t lane) {
        lanes[lane] = run_row_sharded_kernels(&pool);
      });
      for (const auto& lane : lanes) EXPECT_TRUE(lane == serial);
    }
  }
}

}  // namespace
}  // namespace orinsim::quant
