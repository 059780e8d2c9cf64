#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "core/error.h"
#include "core/thread_pool.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define ORINSIM_SIMD_X86 1
#include <immintrin.h>
#else
#define ORINSIM_SIMD_X86 0
#endif

namespace orinsim::simd {

namespace {

bool cpu_has_avx2_fma() {
#if ORINSIM_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::atomic<Level>& level_storage() {
  static std::atomic<Level> level{resolve_level(std::getenv("ORINSIM_KERNELS"))};
  return level;
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. These loops ARE the determinism contract: they
// match the accumulation order of the original kernels::dot / matvec code.

float dot_f32_scalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

std::int64_t dot_i8_scalar(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::int64_t>(a[i]) * static_cast<std::int64_t>(b[i]);
  }
  return acc;
}

#if ORINSIM_SIMD_X86
// ---------------------------------------------------------------------------
// AVX2/FMA kernels. Per-function target attributes keep the rest of the
// binary free of AVX instructions, so auto-dispatch is safe on older CPUs.

__attribute__((target("avx2,fma"))) float dot_f32_avx2(const float* a, const float* b,
                                                       std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  acc0 = _mm256_add_ps(acc0, acc1);
  __m128 lo = _mm256_castps256_ps128(acc0);
  __m128 hi = _mm256_extractf128_ps(acc0, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
  float acc = _mm_cvtss_f32(lo);
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// Four activation columns per weight pass. Each column's accumulator pair,
// reduction and tail are EXACTLY dot_f32_avx2's sequence — only the weight
// loads are shared — so out[t] is bit-identical to dot_f32_avx2(w, x_t, n).
__attribute__((target("avx2,fma"))) void dot_f32_multi4_avx2(const float* w, const float* x,
                                                             std::size_t x_stride,
                                                             std::size_t n, float* out) {
  __m256 acc0[4];
  __m256 acc1[4];
  for (int t = 0; t < 4; ++t) {
    acc0[t] = _mm256_setzero_ps();
    acc1[t] = _mm256_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 w0 = _mm256_loadu_ps(w + i);
    const __m256 w1 = _mm256_loadu_ps(w + i + 8);
    for (int t = 0; t < 4; ++t) {
      const float* xt = x + static_cast<std::size_t>(t) * x_stride;
      acc0[t] = _mm256_fmadd_ps(w0, _mm256_loadu_ps(xt + i), acc0[t]);
      acc1[t] = _mm256_fmadd_ps(w1, _mm256_loadu_ps(xt + i + 8), acc1[t]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 w0 = _mm256_loadu_ps(w + i);
    for (int t = 0; t < 4; ++t) {
      const float* xt = x + static_cast<std::size_t>(t) * x_stride;
      acc0[t] = _mm256_fmadd_ps(w0, _mm256_loadu_ps(xt + i), acc0[t]);
    }
  }
  for (int t = 0; t < 4; ++t) {
    const float* xt = x + static_cast<std::size_t>(t) * x_stride;
    __m256 a = _mm256_add_ps(acc0[t], acc1[t]);
    __m128 lo = _mm256_castps256_ps128(a);
    __m128 hi = _mm256_extractf128_ps(a, 1);
    lo = _mm_add_ps(lo, hi);
    lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
    float acc = _mm_cvtss_f32(lo);
    for (std::size_t j = i; j < n; ++j) acc += w[j] * xt[j];
    out[t] = acc;
  }
}

// u8×s8 trick: maddubs requires one unsigned operand, so move the sign of a
// onto b (abs(a) * sign(b, a) == a * b element-wise). Pair sums fit i16:
// 2 * 127 * 127 = 32258 < 32767. i32 lanes are flushed to i64 every
// kFlushIters iterations; each madd lane is <= 2 * 32258 = 64516, so the i32
// bound 2^31 / 64516 ~= 33k iterations is never approached.
__attribute__((target("avx2"))) std::int64_t dot_i8_avx2(const std::int8_t* a,
                                                         const std::int8_t* b, std::size_t n) {
  constexpr std::size_t kFlushIters = 16384;
  const __m256i ones = _mm256_set1_epi16(1);
  std::int64_t total = 0;
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  std::size_t iters_since_flush = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i abs_a = _mm256_abs_epi8(va);
    const __m256i sgn_b = _mm256_sign_epi8(vb, va);
    const __m256i pairs = _mm256_maddubs_epi16(abs_a, sgn_b);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
    if (++iters_since_flush == kFlushIters) {
      alignas(32) std::int32_t lanes[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
      for (std::int32_t lane : lanes) total += lane;
      acc = _mm256_setzero_si256();
      iters_since_flush = 0;
    }
  }
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  for (std::int32_t lane : lanes) total += lane;
  for (; i < n; ++i) {
    total += static_cast<std::int64_t>(a[i]) * static_cast<std::int64_t>(b[i]);
  }
  return total;
}

// Four-column int8 dot, one weight stream. Integer math is exact, so the
// i64 results equal per-column dot_i8 regardless of accumulation order.
__attribute__((target("avx2"))) void dot_i8_multi4_avx2(const std::int8_t* w,
                                                        const std::int8_t* x,
                                                        std::size_t x_stride, std::size_t n,
                                                        std::int64_t* out) {
  constexpr std::size_t kFlushIters = 16384;
  const __m256i ones = _mm256_set1_epi16(1);
  std::int64_t total[4] = {0, 0, 0, 0};
  __m256i acc[4];
  for (auto& v : acc) v = _mm256_setzero_si256();
  std::size_t i = 0;
  std::size_t iters_since_flush = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i vw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    const __m256i abs_w = _mm256_abs_epi8(vw);
    for (int t = 0; t < 4; ++t) {
      const __m256i vx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + static_cast<std::size_t>(t) * x_stride + i));
      const __m256i sgn_x = _mm256_sign_epi8(vx, vw);
      const __m256i pairs = _mm256_maddubs_epi16(abs_w, sgn_x);
      acc[t] = _mm256_add_epi32(acc[t], _mm256_madd_epi16(pairs, ones));
    }
    if (++iters_since_flush == kFlushIters) {
      for (int t = 0; t < 4; ++t) {
        alignas(32) std::int32_t lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[t]);
        for (std::int32_t lane : lanes) total[t] += lane;
        acc[t] = _mm256_setzero_si256();
      }
      iters_since_flush = 0;
    }
  }
  for (int t = 0; t < 4; ++t) {
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[t]);
    for (std::int32_t lane : lanes) total[t] += lane;
    const std::int8_t* xt = x + static_cast<std::size_t>(t) * x_stride;
    for (std::size_t j = i; j < n; ++j) {
      total[t] += static_cast<std::int64_t>(w[j]) * static_cast<std::int64_t>(xt[j]);
    }
    out[t] = total[t];
  }
}

// Packed-int4 kernel core, up to 4 columns. Register layout per block:
//
//   w16   = 16 packed bytes          [b0 .. b15]
//   lo    = w16 & 0x0F               codes  0..15 (+8 biased)
//   hi    = (w16 >> 4) & 0x0F        codes 16..31 (+8 biased)
//   w8    = set_m128(hi, lo) - 8     32 signed codes in activation order
//   pairs = maddubs(|w8|, sign(x, w8))   16 × i16 pair sums   (<= 2032)
//   isum  = madd(pairs, 1)               8 × i32 quad sums    (<= 4064)
//   facc  = fmadd(cvt_ps(isum), scale_b, facc)   8 float lanes per column
//
// Column t's facc chain touches blocks in order and is reduced with the same
// horizontal-sum sequence as dot_f32_avx2 — independent of how many other
// columns share the weight unpack, and mirrored exactly (std::fma, same lane
// grouping, same hsum order) by dot_i4_i8_multi_ref.
__attribute__((target("avx2,fma"))) void dot_i4_i8_multi_avx2(
    const std::uint8_t* w_packed, const float* scales, std::size_t blocks,
    const std::int8_t* x, std::size_t x_stride, std::size_t n_cols, float* out) {
  const __m256i ones = _mm256_set1_epi16(1);
  const __m128i nib_mask = _mm_set1_epi8(0x0F);
  const __m256i bias = _mm256_set1_epi8(8);
  // 8-column tiles: one nibble-unpack serves 8 lanes (a full decode batch in
  // one pass). Each lane keeps its own independent fma chain, so tile width
  // never changes a lane's result — only how many lanes share the unpack.
  for (std::size_t t0 = 0; t0 < n_cols; t0 += 8) {
    const std::size_t tc = n_cols - t0 < 8 ? n_cols - t0 : 8;
    __m256 facc[8];
    for (auto& v : facc) v = _mm256_setzero_ps();
    for (std::size_t b = 0; b < blocks; ++b) {
      const __m128i w16 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(w_packed + b * kInt4KernelBlockBytes));
      const __m128i lo = _mm_and_si128(w16, nib_mask);
      const __m128i hi = _mm_and_si128(_mm_srli_epi16(w16, 4), nib_mask);
      const __m256i w8 = _mm256_sub_epi8(_mm256_set_m128i(hi, lo), bias);
      const __m256i abs_w = _mm256_abs_epi8(w8);
      const __m256 scale = _mm256_broadcast_ss(scales + b);
      for (std::size_t t = 0; t < tc; ++t) {
        const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            x + (t0 + t) * x_stride + b * kInt4KernelBlock));
        const __m256i sgn_x = _mm256_sign_epi8(vx, w8);
        const __m256i pairs = _mm256_maddubs_epi16(abs_w, sgn_x);
        const __m256i isum = _mm256_madd_epi16(pairs, ones);
        facc[t] = _mm256_fmadd_ps(_mm256_cvtepi32_ps(isum), scale, facc[t]);
      }
    }
    for (std::size_t t = 0; t < tc; ++t) {
      __m128 lo = _mm256_castps256_ps128(facc[t]);
      __m128 hi = _mm256_extractf128_ps(facc[t], 1);
      lo = _mm_add_ps(lo, hi);
      lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
      lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
      out[t0 + t] = _mm_cvtss_f32(lo);
    }
  }
}

// One pass over a weight row serves 8 tokens: 8 ymm accumulators + 1 weight
// load per 8 input columns turns the memory-bound matvec sweep into a
// compute-bound block. Tail tokens fall back to the single-vector dot.
__attribute__((target("avx2,fma"))) void gemm_nt_row_avx2(const float* x, const float* w_row,
                                                          float* y, std::size_t tokens,
                                                          std::size_t k, std::size_t rows,
                                                          std::size_t r) {
  std::size_t t0 = 0;
  for (; t0 + 8 <= tokens; t0 += 8) {
    __m256 acc[8];
    for (auto& v : acc) v = _mm256_setzero_ps();
    std::size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      const __m256 wv = _mm256_loadu_ps(w_row + c);
      for (std::size_t t = 0; t < 8; ++t) {
        acc[t] = _mm256_fmadd_ps(_mm256_loadu_ps(x + (t0 + t) * k + c), wv, acc[t]);
      }
    }
    for (std::size_t t = 0; t < 8; ++t) {
      __m128 lo = _mm256_castps256_ps128(acc[t]);
      __m128 hi = _mm256_extractf128_ps(acc[t], 1);
      lo = _mm_add_ps(lo, hi);
      lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
      lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
      float sum = _mm_cvtss_f32(lo);
      const float* xt = x + (t0 + t) * k;
      for (std::size_t cc = c; cc < k; ++cc) sum += xt[cc] * w_row[cc];
      y[(t0 + t) * rows + r] = sum;
    }
  }
  for (; t0 < tokens; ++t0) {
    y[t0 * rows + r] = dot_f32_avx2(x + t0 * k, w_row, k);
  }
}

// Roofline probe: 8 independent 8-lane fma chains, values kept near 1.0 so
// the loop never denormalizes. The sink store defeats dead-code elimination.
__attribute__((target("avx2,fma"))) double fma_probe_flops_avx2(std::size_t iters) {
  __m256 acc[8];
  for (int c = 0; c < 8; ++c) acc[c] = _mm256_set1_ps(1.0f + 0.001f * static_cast<float>(c));
  const __m256 a = _mm256_set1_ps(1.0000001f);
  const __m256 b = _mm256_set1_ps(-0.0000001f);
  for (std::size_t i = 0; i < iters; ++i) {
    for (int c = 0; c < 8; ++c) acc[c] = _mm256_fmadd_ps(acc[c], a, b);
  }
  alignas(32) float sink[8];
  __m256 total = acc[0];
  for (int c = 1; c < 8; ++c) total = _mm256_add_ps(total, acc[c]);
  _mm256_store_ps(sink, total);
  volatile float keep = sink[0];
  (void)keep;
  return static_cast<double>(iters) * 8.0 * 8.0 * 2.0;
}
#endif  // ORINSIM_SIMD_X86

}  // namespace

Level resolve_level(const char* value) {
  const std::string v = value == nullptr ? "" : value;
  if (v == "scalar") return Level::kScalar;
  if (v == "native") {
    ORINSIM_CHECK(cpu_has_avx2_fma(), "ORINSIM_KERNELS=native but CPU lacks AVX2/FMA");
    return Level::kNative;
  }
  if (!v.empty()) {
    std::fprintf(stderr,
                 "orinsim: ignoring unknown ORINSIM_KERNELS value '%s' "
                 "(accepted: 'scalar', 'native', or unset for auto-detection)\n",
                 v.c_str());
  }
  return cpu_has_avx2_fma() ? Level::kNative : Level::kScalar;
}

Level init() { return level_storage().load(std::memory_order_relaxed); }

Level active_level() { return level_storage().load(std::memory_order_relaxed); }

bool native_available() { return cpu_has_avx2_fma(); }

void set_level(Level level) {
  if (level == Level::kNative) {
    ORINSIM_CHECK(cpu_has_avx2_fma(), "set_level(kNative): CPU lacks AVX2/FMA");
  }
  level_storage().store(level, std::memory_order_relaxed);
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kNative: return "native";
  }
  return "?";
}

float dot_f32(const float* a, const float* b, std::size_t n) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) return dot_f32_avx2(a, b, n);
#endif
  return dot_f32_scalar(a, b, n);
}

std::int64_t dot_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) return dot_i8_avx2(a, b, n);
#endif
  return dot_i8_scalar(a, b, n);
}

void dot_f32_multi(const float* w, const float* x, std::size_t x_stride, std::size_t n_cols,
                   std::size_t n, float* out) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) {
    std::size_t t = 0;
    for (; t + 4 <= n_cols; t += 4) {
      dot_f32_multi4_avx2(w, x + t * x_stride, x_stride, n, out + t);
    }
    // Remainder columns: the single-column kernel, which the 4-wide tile
    // matches per column by construction.
    for (; t < n_cols; ++t) out[t] = dot_f32_avx2(w, x + t * x_stride, n);
    return;
  }
#endif
  for (std::size_t t = 0; t < n_cols; ++t) out[t] = dot_f32_scalar(w, x + t * x_stride, n);
}

void dot_i8_multi(const std::int8_t* w, const std::int8_t* x, std::size_t x_stride,
                  std::size_t n_cols, std::size_t n, std::int64_t* out) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) {
    std::size_t t = 0;
    for (; t + 4 <= n_cols; t += 4) {
      dot_i8_multi4_avx2(w, x + t * x_stride, x_stride, n, out + t);
    }
    for (; t < n_cols; ++t) out[t] = dot_i8_avx2(w, x + t * x_stride, n);
    return;
  }
#endif
  for (std::size_t t = 0; t < n_cols; ++t) out[t] = dot_i8_scalar(w, x + t * x_stride, n);
}

void dot_i4_i8_multi_ref(const std::uint8_t* w_packed, const float* scales, std::size_t blocks,
                         const std::int8_t* x, std::size_t x_stride, std::size_t n_cols,
                         float* out) {
  for (std::size_t t = 0; t < n_cols; ++t) {
    const std::int8_t* xt = x + t * x_stride;
    // 8 float lanes, exactly the AVX2 kernel's i32 quad-sum grouping: lane l
    // of block b covers codes 4l .. 4l+3 in activation order.
    float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::uint8_t* wb = w_packed + b * kInt4KernelBlockBytes;
      const std::int8_t* xb = xt + b * kInt4KernelBlock;
      for (int l = 0; l < 8; ++l) {
        std::int32_t isum = 0;
        for (int j = 4 * l; j < 4 * l + 4; ++j) {
          const int code = j < 16 ? (wb[j] & 0x0F) - 8 : (wb[j - 16] >> 4) - 8;
          isum += code * static_cast<std::int32_t>(xb[j]);
        }
        lanes[l] = std::fma(static_cast<float>(isum), scales[b], lanes[l]);
      }
    }
    // dot_f32_avx2's horizontal-sum order: (l0+l4)+(l2+l6) then (l1+l5)+(l3+l7).
    const float q0 = lanes[0] + lanes[4];
    const float q1 = lanes[1] + lanes[5];
    const float q2 = lanes[2] + lanes[6];
    const float q3 = lanes[3] + lanes[7];
    out[t] = (q0 + q2) + (q1 + q3);
  }
}

void dot_i4_i8_multi(const std::uint8_t* w_packed, const float* scales, std::size_t blocks,
                     const std::int8_t* x, std::size_t x_stride, std::size_t n_cols,
                     float* out) {
#if ORINSIM_SIMD_X86
  if (cpu_has_avx2_fma()) {
    dot_i4_i8_multi_avx2(w_packed, scales, blocks, x, x_stride, n_cols, out);
    return;
  }
#endif
  dot_i4_i8_multi_ref(w_packed, scales, blocks, x, x_stride, n_cols, out);
}

void gemm_nt_f32(const float* x, const float* w, float* y, std::size_t tokens, std::size_t k,
                 std::size_t rows, ThreadPool* pool) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) {
    parallel_rows(pool, rows, k * tokens, [&](std::size_t, std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) gemm_nt_row_avx2(x, w + r * k, y, tokens, k, rows, r);
    });
    return;
  }
#endif
  // Scalar: each output entry is the exact dot_f32_scalar float sequence, so
  // chunked projections match token-at-a-time matvecs bit-for-bit.
  parallel_rows(pool, rows, k * tokens, [&](std::size_t, std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t t = 0; t < tokens; ++t) {
        y[t * rows + r] = dot_f32_scalar(x + t * k, w + r * k, k);
      }
    }
  });
}

namespace {

// ---------------------------------------------------------------------------
// Fused attention. attend_tiled owns the loop structure both levels share; a
// Tile type stages one position tile of one KV head and folds it into a
// batch of queries.

// At most this many query vectors of one KV head share a pass over the
// chain; their state lives on the stack.
constexpr std::size_t kAttnQueries = 64;
// Largest head the tile buffers hold.
constexpr std::size_t kAttnMaxHeadDim = 256;

// The queries of one KV head and batch of rows that reach the current tile,
// in row order. len is a query's causal length; m and l are its running max
// and sum (padded by kAttnTile entries, so tiles may load whole vectors);
// its running output accumulates in place at o.
struct QueryBatch {
  const float* const* q;
  float* const* o;
  const std::size_t* len;
  float* m;
  float* l;
  std::size_t n;
};

template <typename T>
const T* chain_keys(const KVChainView& kv) {
  if constexpr (std::is_same_v<T, float>) {
    return kv.k;
  } else {
    return kv.k_codes;
  }
}

template <typename T>
const T* chain_values(const KVChainView& kv) {
  if constexpr (std::is_same_v<T, float>) {
    return kv.v;
  } else {
    return kv.v_codes;
  }
}

// Stored scale of a physical row: 1 for f32 rows, the absmax scale for int8.
inline float row_scale(const float* scales, std::size_t row) {
  return scales != nullptr ? scales[row] : 1.0f;
}

// Per KV head and batch of rows: walk the chain tile by tile from position
// 0, stage each tile once, and fold it into every query whose causal range
// reaches it. A query sees tiles [0, len) only and every step of its update
// is its own, so its float sequence never depends on the batch it rides in.
template <class Tile>
__attribute__((always_inline)) inline void attend_tiled(
    const float* q, float* out, std::size_t row_stride, std::size_t rows, std::size_t first,
    std::size_t n_heads, std::size_t n_kv_heads, std::size_t head_dim,
    const KVChainView& kv) {
  const std::size_t group = n_heads / n_kv_heads;
  const std::size_t batch_rows = std::max<std::size_t>(1, kAttnQueries / group);
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim));
  Tile tile(kv, head_dim);
  const float* qp[kAttnQueries];
  float* op[kAttnQueries];
  std::size_t len[kAttnQueries];
  float m[kAttnQueries + kAttnTile];
  float l[kAttnQueries + kAttnTile];
  std::size_t phys[kAttnTile];
  for (std::size_t g = 0; g < n_kv_heads; ++g) {
    for (std::size_t t0 = 0; t0 < rows; t0 += batch_rows) {
      const std::size_t t1 = std::min(rows, t0 + batch_rows);
      std::size_t n = 0;
      for (std::size_t t = t0; t < t1; ++t) {
        for (std::size_t j = 0; j < group; ++j, ++n) {
          const std::size_t col = (g * group + j) * head_dim;
          qp[n] = q + t * row_stride + col;
          op[n] = out + t * row_stride + col;
          len[n] = first + t + 1;
        }
      }
      std::fill_n(m, n + kAttnTile, -std::numeric_limits<float>::infinity());
      std::fill_n(l, n + kAttnTile, 0.0f);
      // Walk the block chain with a cursor: no division per tile.
      std::size_t block = 0, offset = 0;
      const std::size_t n_end = first + t1;  // positions the batch reads
      for (std::size_t p0 = 0; p0 < n_end; p0 += kAttnTile) {
        const std::size_t nt = std::min(kAttnTile, n_end - p0);
        for (std::size_t i = 0; i < nt; ++i) {
          phys[i] = kv.blocks[block] * kv.block_rows + offset;
          if (++offset == kv.block_rows) {
            offset = 0;
            ++block;
          }
        }
        tile.stage(phys, nt, g * head_dim, inv_sqrt_d);
        // Queries are in row order, so those reaching past p0 are a suffix.
        const std::size_t t_begin = std::max(t0, p0 > first ? p0 - first : 0);
        const std::size_t b = (t_begin - t0) * group;
        tile.attend(QueryBatch{qp + b, op + b, len + b, m + b, l + b, n - b}, p0);
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d = 0; d < head_dim; ++d) op[i][d] /= l[i];
      }
    }
  }
}

// Scalar reference tile: row pointers into the cache, plain loops, std::exp.
template <typename T>
class ScalarAttnTile {
 public:
  ScalarAttnTile(const KVChainView& kv, std::size_t head_dim)
      : kv_(kv), keys_(chain_keys<T>(kv)), values_(chain_values<T>(kv)), hd_(head_dim) {}

  void stage(const std::size_t* phys, std::size_t nt, std::size_t col, float inv_sqrt_d) {
    for (std::size_t i = 0; i < nt; ++i) {
      k_[i] = keys_ + phys[i] * kv_.row_width + col;
      v_[i] = values_ + phys[i] * kv_.row_width + col;
      ks_[i] = row_scale(kv_.k_scales, phys[i]) * inv_sqrt_d;
      vs_[i] = row_scale(kv_.v_scales, phys[i]);
    }
  }

  void attend(const QueryBatch& batch, std::size_t p0) const {
    for (std::size_t j = 0; j < batch.n; ++j) {
      const float* q = batch.q[j];
      float* o = batch.o[j];
      const std::size_t valid = std::min(kAttnTile, batch.len[j] - p0);
      float s[kAttnTile];
      float m = batch.m[j];
      for (std::size_t i = 0; i < valid; ++i) {
        float acc = 0.0f;
        for (std::size_t d = 0; d < hd_; ++d) acc += q[d] * static_cast<float>(k_[i][d]);
        s[i] = acc * ks_[i];
        m = std::max(m, s[i]);
      }
      const float alpha = std::exp(batch.m[j] - m);  // 0 on the first tile
      batch.m[j] = m;
      for (std::size_t d = 0; d < hd_; ++d) o[d] = p0 == 0 ? 0.0f : o[d] * alpha;
      float sum = 0.0f;
      for (std::size_t i = 0; i < valid; ++i) {
        const float p = std::exp(s[i] - m);
        sum += p;
        const float w = p * vs_[i];
        for (std::size_t d = 0; d < hd_; ++d) o[d] += w * static_cast<float>(v_[i][d]);
      }
      batch.l[j] = batch.l[j] * alpha + sum;
    }
  }

 private:
  const KVChainView& kv_;
  const T* keys_;
  const T* values_;
  std::size_t hd_;
  const T* k_[kAttnTile] = {};
  const T* v_[kAttnTile] = {};
  float ks_[kAttnTile] = {};
  float vs_[kAttnTile] = {};
};

#if ORINSIM_SIMD_X86
// Cephes-style expf: range reduction to [-ln2/2, ln2/2], degree-5
// polynomial, 2^n through the exponent bits. exp(0) is exactly 1; inputs
// below the smallest normal's log (including -inf) return exactly 0.
__attribute__((target("avx2,fma"))) inline __m256 exp_avx2(__m256 x) {
  const __m256 lo = _mm256_set1_ps(-87.33654f);
  const __m256 under = _mm256_cmp_ps(x, lo, _CMP_LT_OQ);
  x = _mm256_min_ps(_mm256_max_ps(x, lo), _mm256_set1_ps(88.37626f));
  const __m256 fx = _mm256_floor_ps(
      _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f), _mm256_set1_ps(0.5f)));
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(x, x), _mm256_add_ps(x, _mm256_set1_ps(1.0f)));
  const __m256i pow2n = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(fx), _mm256_set1_epi32(127)), 23);
  return _mm256_andnot_ps(under, _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n)));
}

__attribute__((target("avx2,fma"))) inline float hmax_avx2(__m256 v) {
  __m128 lo = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
  return _mm_cvtss_f32(lo);
}

__attribute__((target("avx2,fma"))) inline float hsum_avx2(__m256 v) {
  __m128 lo = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
  return _mm_cvtss_f32(lo);
}

__attribute__((target("avx2,fma"))) inline __m256 load8_avx2(const float* p) {
  return _mm256_loadu_ps(p);
}

__attribute__((target("avx2,fma"))) inline __m256 load8_avx2(const std::int8_t* p) {
  return _mm256_cvtepi32_ps(
      _mm256_cvtepi8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
}

// In-register 8x8 transpose: r[j] becomes column j of the input rows.
__attribute__((target("avx2,fma"))) inline void transpose8_avx2(__m256* r) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

// AVX2 tile: K staged transposed ([d][position], codes as floats) so one
// broadcast per head element and one FMA per 8 positions yield a query's
// scores; int8 V
// rows staged as floats, f32 V rows read in place. attend() runs in three
// passes over the batch (scores, softmax, V), each a loop of independent
// per-query chains the core can overlap.
template <typename T>
class Avx2AttnTile {
  static_assert(kAttnTile % 8 == 0, "the AVX2 tile is whole 8-lane vectors");
  static constexpr std::size_t kVecs = kAttnTile / 8;

 public:
  Avx2AttnTile(const KVChainView& kv, std::size_t head_dim)
      : kv_(kv), keys_(chain_keys<T>(kv)), values_(chain_values<T>(kv)), hd_(head_dim) {
    for (std::size_t i = 0; i < kAttnTile; ++i) lane_[i] = static_cast<float>(i);
  }

  __attribute__((target("avx2,fma"))) void stage(const std::size_t* phys, std::size_t nt,
                                                 std::size_t col, float inv_sqrt_d) {
    const T* krow[kAttnTile];
    for (std::size_t i = 0; i < kAttnTile; ++i) {
      krow[i] = i < nt ? keys_ + phys[i] * kv_.row_width + col : nullptr;
      ks_[i] = i < nt ? row_scale(kv_.k_scales, phys[i]) * inv_sqrt_d : 0.0f;
      vs_[i] = i < nt ? row_scale(kv_.v_scales, phys[i]) : 0.0f;
    }
    std::size_t d0 = 0;
    for (; d0 + 8 <= hd_; d0 += 8) {
      for (std::size_t h = 0; h < kAttnTile; h += 8) {
        __m256 r[8];
        for (std::size_t i = 0; i < 8; ++i) {
          r[i] = h + i < nt ? load8_avx2(krow[h + i] + d0) : _mm256_setzero_ps();
        }
        transpose8_avx2(r);
        for (std::size_t j = 0; j < 8; ++j) {
          _mm256_store_ps(kt_ + (d0 + j) * kAttnTile + h, r[j]);
        }
      }
    }
    for (; d0 < hd_; ++d0) {
      for (std::size_t i = 0; i < kAttnTile; ++i) {
        kt_[d0 * kAttnTile + i] = i < nt ? static_cast<float>(krow[i][d0]) : 0.0f;
      }
    }
    for (std::size_t i = 0; i < nt; ++i) {
      const T* vrow = values_ + phys[i] * kv_.row_width + col;
      if constexpr (std::is_same_v<T, float>) {
        v_[i] = vrow;
      } else {
        float* staged = vt_ + i * hd_;
        std::size_t d = 0;
        for (; d + 8 <= hd_; d += 8) _mm256_storeu_ps(staged + d, load8_avx2(vrow + d));
        for (; d < hd_; ++d) staged[d] = static_cast<float>(vrow[d]);
        v_[i] = staged;
      }
    }
  }

  __attribute__((target("avx2,fma"))) void attend(const QueryBatch& batch, std::size_t p0) {
    const std::size_t n = batch.n;
    // Scores and tile maxima; lanes past a query's causal end read -inf.
    const __m256 neg_inf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    for (std::size_t j = 0; j < n; ++j) {
      const float* q = batch.q[j];
      __m256 even[kVecs], odd[kVecs];
      for (std::size_t h = 0; h < kVecs; ++h) even[h] = odd[h] = _mm256_setzero_ps();
      for (std::size_t d = 0; d < hd_; d += 2) {  // head_dim is even
        const __m256 q0 = _mm256_set1_ps(q[d]);
        const __m256 q1 = _mm256_set1_ps(q[d + 1]);
        for (std::size_t h = 0; h < kVecs; ++h) {
          even[h] = _mm256_fmadd_ps(q0, _mm256_load_ps(kt_ + d * kAttnTile + 8 * h), even[h]);
          odd[h] = _mm256_fmadd_ps(q1, _mm256_load_ps(kt_ + (d + 1) * kAttnTile + 8 * h),
                                   odd[h]);
        }
      }
      const __m256 valid =
          _mm256_set1_ps(static_cast<float>(std::min(kAttnTile, batch.len[j] - p0)));
      __m256 tmax = neg_inf;
      for (std::size_t h = 0; h < kVecs; ++h) {
        const __m256 past = _mm256_cmp_ps(_mm256_load_ps(lane_ + 8 * h), valid, _CMP_GE_OQ);
        const __m256 s = _mm256_blendv_ps(
            _mm256_mul_ps(_mm256_add_ps(even[h], odd[h]), _mm256_load_ps(ks_ + 8 * h)),
            neg_inf, past);
        _mm256_store_ps(s_ + j * kAttnTile + 8 * h, s);
        tmax = _mm256_max_ps(tmax, s);
      }
      tmax_[j] = hmax_avx2(tmax);
    }
    // New running maxima and rescale factors, 8 queries per vector. The
    // padding lanes past n only touch the batch's spare state entries.
    std::fill_n(tmax_ + n, 8, 0.0f);
    for (std::size_t j = 0; j < n; j += 8) {
      const __m256 m_old = _mm256_loadu_ps(batch.m + j);
      const __m256 m_new = _mm256_max_ps(m_old, _mm256_loadu_ps(tmax_ + j));
      _mm256_storeu_ps(alpha_ + j, exp_avx2(_mm256_sub_ps(m_old, m_new)));
      _mm256_storeu_ps(batch.m + j, m_new);
    }
    // Probabilities, running sums, and V weights with v_scale folded in.
    for (std::size_t j = 0; j < n; ++j) {
      const __m256 m = _mm256_set1_ps(batch.m[j]);
      __m256 sum = _mm256_setzero_ps();
      for (std::size_t h = 0; h < kVecs; ++h) {
        const __m256 p = exp_avx2(_mm256_sub_ps(_mm256_load_ps(s_ + j * kAttnTile + 8 * h), m));
        sum = _mm256_add_ps(sum, p);
        _mm256_store_ps(w_ + j * kAttnTile + 8 * h, _mm256_mul_ps(p, _mm256_load_ps(vs_ + 8 * h)));
      }
      batch.l[j] = batch.l[j] * alpha_[j] + hsum_avx2(sum);
    }
    // Rescaled running outputs plus the tile's weighted V rows.
    for (std::size_t j = 0; j < n; ++j) {
      float* o = batch.o[j];
      const float* w = w_ + j * kAttnTile;
      const std::size_t valid = std::min(kAttnTile, batch.len[j] - p0);
      const __m256 alpha = _mm256_set1_ps(alpha_[j]);
      std::size_t d0 = 0;
      for (; d0 + 8 <= hd_; d0 += 8) {
        __m256 acc =
            p0 == 0 ? _mm256_setzero_ps() : _mm256_mul_ps(_mm256_loadu_ps(o + d0), alpha);
        for (std::size_t i = 0; i < valid; ++i) {
          acc = _mm256_fmadd_ps(_mm256_set1_ps(w[i]), _mm256_loadu_ps(v_[i] + d0), acc);
        }
        _mm256_storeu_ps(o + d0, acc);
      }
      for (; d0 < hd_; ++d0) {
        float acc = p0 == 0 ? 0.0f : o[d0] * alpha_[j];
        for (std::size_t i = 0; i < valid; ++i) acc = std::fma(w[i], v_[i][d0], acc);
        o[d0] = acc;
      }
    }
  }

 private:
  const KVChainView& kv_;
  const T* keys_;
  const T* values_;
  std::size_t hd_;
  alignas(32) float kt_[kAttnMaxHeadDim * kAttnTile];
  alignas(32) float vt_[kAttnTile * kAttnMaxHeadDim];
  alignas(32) float ks_[kAttnTile];
  alignas(32) float vs_[kAttnTile];
  const float* v_[kAttnTile] = {};
  alignas(32) float lane_[kAttnTile];  // 0, 1, 2, ...: position within the tile
  // Per-query tile scratch.
  alignas(32) float s_[kAttnQueries * kAttnTile];
  alignas(32) float w_[kAttnQueries * kAttnTile];
  float tmax_[kAttnQueries + 8];
  float alpha_[kAttnQueries + 8];
};

template <typename T>
__attribute__((target("avx2,fma"))) void attend_rows_avx2(
    const float* q, float* out, std::size_t row_stride, std::size_t rows, std::size_t first,
    std::size_t n_heads, std::size_t n_kv_heads, std::size_t head_dim,
    const KVChainView& kv) {
  attend_tiled<Avx2AttnTile<T>>(q, out, row_stride, rows, first, n_heads, n_kv_heads,
                                head_dim, kv);
}
#endif  // ORINSIM_SIMD_X86

template <typename T>
void attend_rows_scalar(const float* q, float* out, std::size_t row_stride, std::size_t rows,
                        std::size_t first, std::size_t n_heads, std::size_t n_kv_heads,
                        std::size_t head_dim, const KVChainView& kv) {
  attend_tiled<ScalarAttnTile<T>>(q, out, row_stride, rows, first, n_heads, n_kv_heads,
                                  head_dim, kv);
}

}  // namespace

void attend_rows(const float* q, float* out, std::size_t row_stride, std::size_t rows,
                 std::size_t first, std::size_t n_heads, std::size_t n_kv_heads,
                 std::size_t head_dim, const KVChainView& kv) {
  ORINSIM_CHECK(n_kv_heads > 0 && n_heads % n_kv_heads == 0 &&
                    n_heads / n_kv_heads <= kAttnQueries,
                "attend_rows: n_heads must be a multiple of n_kv_heads, at most 64 per KV head");
  ORINSIM_CHECK(head_dim > 0 && head_dim % 2 == 0 && head_dim <= kAttnMaxHeadDim,
                "attend_rows: head_dim must be even and at most 256");
  ORINSIM_CHECK(n_heads * head_dim <= row_stride && n_kv_heads * head_dim <= kv.row_width,
                "attend_rows: heads exceed the row width");
  ORINSIM_CHECK((kv.k != nullptr) != (kv.k_codes != nullptr) && kv.block_rows > 0,
                "attend_rows: the chain view needs exactly one storage");
  if (rows == 0) return;
  const bool int8 = kv.k_codes != nullptr;
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) {
    (int8 ? attend_rows_avx2<std::int8_t> : attend_rows_avx2<float>)(
        q, out, row_stride, rows, first, n_heads, n_kv_heads, head_dim, kv);
    return;
  }
#endif
  (int8 ? attend_rows_scalar<std::int8_t> : attend_rows_scalar<float>)(
      q, out, row_stride, rows, first, n_heads, n_kv_heads, head_dim, kv);
}

double fma_probe_flops(std::size_t iters) {
#if ORINSIM_SIMD_X86
  if (cpu_has_avx2_fma()) return fma_probe_flops_avx2(iters);
#endif
  float acc[8];
  for (int c = 0; c < 8; ++c) acc[c] = 1.0f + 0.001f * static_cast<float>(c);
  for (std::size_t i = 0; i < iters; ++i) {
    for (int c = 0; c < 8; ++c) acc[c] = std::fma(acc[c], 1.0000001f, -0.0000001f);
  }
  volatile float keep = acc[0] + acc[1] + acc[2] + acc[3] + acc[4] + acc[5] + acc[6] + acc[7];
  (void)keep;
  return static_cast<double>(iters) * 8.0 * 2.0;
}

}  // namespace orinsim::simd
