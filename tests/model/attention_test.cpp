// The fused attention kernel (simd::attend_rows) over real KV caches: paged
// chains of 1-, 4- and 16-row blocks and the dense layout, f32 and int8
// storage, both kernel levels, checked against a double-precision two-pass
// softmax over the cache's own key()/value() reads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "model/config.h"
#include "model/kv_cache.h"
#include "tensor/simd.h"

namespace orinsim {
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

std::vector<simd::Level> levels() {
  std::vector<simd::Level> out = {simd::Level::kScalar};
  if (simd::native_available()) out.push_back(simd::Level::kNative);
  return out;
}

struct Geometry {
  std::size_t n_heads;
  std::size_t n_kv_heads;
  std::size_t head_dim;
};

TransformerConfig config_for(const Geometry& g, std::size_t max_seq) {
  TransformerConfig c;
  c.vocab = 16;
  c.n_layers = 1;
  c.n_heads = g.n_heads;
  c.n_kv_heads = g.n_kv_heads;
  c.d_model = g.n_heads * g.head_dim;
  c.d_ff = 16;
  c.max_seq = max_seq;
  c.validate();
  return c;
}

std::vector<float> random_rows(std::size_t n, Rng& rng, double scale) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

// A cache holding `len` random positions in sequence 1. Sequence 0 appends
// in turns with it, so paged chains of small blocks are not consecutive.
struct FilledCache {
  FilledCache(const TransformerConfig& c, KVCacheOptions opt, std::size_t len, Rng& rng)
      : cache(c, 2, c.max_seq, opt) {
    const std::size_t kv = c.kv_dim();
    constexpr std::size_t kStride = 3;
    for (std::size_t p = 0; p < len; p += kStride) {
      const std::size_t n = std::min(kStride, len - p);
      for (std::size_t b = 0; b < 2; ++b) {
        const auto k = random_rows(n * kv, rng, 1.0);
        const auto v = random_rows(n * kv, rng, 1.0);
        cache.append_many(0, b, k, v, n);
        cache.commit(b, n);
      }
    }
  }
  KVCache cache;
};

// out[t, h, :] for rows at positions first .. first + rows - 1 of sequence
// 1, in double precision with a max-subtracted two-pass softmax.
std::vector<double> reference(const KVCache& cache, const Geometry& g,
                              const std::vector<float>& q, std::size_t rows,
                              std::size_t first) {
  const std::size_t d = g.n_heads * g.head_dim;
  const std::size_t group = g.n_heads / g.n_kv_heads;
  const std::size_t kv = cache.kv_dim();
  std::vector<double> out(rows * d, 0.0);
  std::vector<float> ks(kv), vs(kv);
  std::vector<std::vector<float>> keys, values;
  for (std::size_t p = 0; p < first + rows; ++p) {
    const auto k = cache.key(0, 1, p, ks);
    const auto v = cache.value(0, 1, p, vs);
    keys.emplace_back(k.begin(), k.end());
    values.emplace_back(v.begin(), v.end());
  }
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(g.head_dim));
  for (std::size_t t = 0; t < rows; ++t) {
    const std::size_t n = first + t + 1;
    for (std::size_t h = 0; h < g.n_heads; ++h) {
      const std::size_t col = (h / group) * g.head_dim;
      std::vector<double> s(n);
      double m = -INFINITY;
      for (std::size_t p = 0; p < n; ++p) {
        double acc = 0.0;
        for (std::size_t i = 0; i < g.head_dim; ++i) {
          acc += static_cast<double>(q[t * d + h * g.head_dim + i]) * keys[p][col + i];
        }
        s[p] = acc * inv_sqrt_d;
        m = std::max(m, s[p]);
      }
      double sum = 0.0;
      for (std::size_t p = 0; p < n; ++p) {
        s[p] = std::exp(s[p] - m);
        sum += s[p];
      }
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t i = 0; i < g.head_dim; ++i) {
          out[t * d + h * g.head_dim + i] += s[p] / sum * values[p][col + i];
        }
      }
    }
  }
  return out;
}

std::vector<float> attend(const KVCache& cache, const Geometry& g, const std::vector<float>& q,
                          std::size_t rows, std::size_t first) {
  const std::size_t d = g.n_heads * g.head_dim;
  std::vector<float> out(rows * d, NAN);
  simd::attend_rows(q.data(), out.data(), d, rows, first, g.n_heads, g.n_kv_heads, g.head_dim,
                    cache.chain(0, 1, first + rows));
  return out;
}

KVCacheOptions options(KVStorage storage, std::size_t block_tokens) {
  KVCacheOptions opt;
  opt.storage = storage;
  if (block_tokens == 0) {
    opt.layout = KVLayout::kDense;
  } else {
    opt.block_tokens = block_tokens;
  }
  return opt;
}

std::string describe(simd::Level level, KVStorage storage, std::size_t block_tokens,
                     const Geometry& g) {
  return std::string(simd::level_name(level)) +
         (storage == KVStorage::kI8 ? " i8" : " f32") +
         " block=" + (block_tokens == 0 ? std::string("dense") : std::to_string(block_tokens)) +
         " heads=" + std::to_string(g.n_heads) + "/" + std::to_string(g.n_kv_heads) +
         " head_dim=" + std::to_string(g.head_dim);
}

void expect_matches_reference(const KVCache& cache, const Geometry& g,
                              const std::vector<float>& q, std::size_t rows, std::size_t first,
                              const std::string& where, double tol = 2e-5) {
  const auto got = attend(cache, g, q, rows, first);
  const auto ref = reference(cache, g, q, rows, first);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(std::isfinite(got[i])) << where << " i=" << i;
    ASSERT_NEAR(got[i], ref[i], tol * (1.0 + std::fabs(ref[i]))) << where << " i=" << i;
  }
}

TEST(AttentionKernelTest, MatchesDoublePrecisionReferenceOnRaggedRows) {
  // 25 rows starting at position 45: causal lengths 46..70 cross tile
  // boundaries, and every row but one ends inside a partial tile.
  const std::size_t first = 45, rows = 25;
  for (simd::Level level : levels()) {
    ScopedLevel scoped(level);
    for (const Geometry& g : {Geometry{4, 4, 16}, Geometry{8, 2, 16}, Geometry{4, 1, 32},
                              Geometry{4, 4, 64}, Geometry{8, 2, 64}}) {
      const auto cfg = config_for(g, 96);
      for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
        for (std::size_t block_tokens : {0, 1, 4, 16}) {
          Rng rng(11 + g.head_dim);
          FilledCache filled(cfg, options(storage, block_tokens), first + rows, rng);
          const auto q = random_rows(rows * cfg.d_model, rng, 1.0);
          expect_matches_reference(filled.cache, g, q, rows, first,
                                   describe(level, storage, block_tokens, g));
        }
      }
    }
  }
}

TEST(AttentionKernelTest, MatchesDoublePrecisionReferenceAtLongContext) {
  // A decode row and a 32-row prefill chunk ending at position 2047.
  const std::size_t ctx = 2048;
  for (simd::Level level : levels()) {
    ScopedLevel scoped(level);
    for (const Geometry& g : {Geometry{8, 2, 16}, Geometry{4, 4, 64}}) {
      const auto cfg = config_for(g, ctx);
      for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
        for (std::size_t block_tokens : {1, 16}) {
          Rng rng(5);
          FilledCache filled(cfg, options(storage, block_tokens), ctx, rng);
          const auto q = random_rows(32 * cfg.d_model, rng, 1.0);
          const std::string where = describe(level, storage, block_tokens, g);
          expect_matches_reference(filled.cache, g, q, 1, ctx - 1, where + " decode");
          expect_matches_reference(filled.cache, g, q, 32, ctx - 32, where + " chunk");
        }
      }
    }
  }
}

TEST(AttentionKernelTest, RowAloneBitIdenticalToRowInsideRun) {
  // A row's float sequence depends only on its query, causal length and the
  // cache: computing it alone must reproduce it inside a 32-row run exactly.
  const std::size_t first = 37, rows = 32;
  for (simd::Level level : levels()) {
    ScopedLevel scoped(level);
    for (const Geometry& g : {Geometry{4, 4, 16}, Geometry{8, 2, 32}}) {
      const auto cfg = config_for(g, 96);
      const std::size_t d = cfg.d_model;
      for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
        for (std::size_t block_tokens : {1, 4, 16}) {
          Rng rng(3);
          FilledCache filled(cfg, options(storage, block_tokens), first + rows, rng);
          const auto q = random_rows(rows * d, rng, 1.0);
          const auto run = attend(filled.cache, g, q, rows, first);
          for (std::size_t t = 0; t < rows; ++t) {
            const std::vector<float> qt(q.begin() + t * d, q.begin() + (t + 1) * d);
            const auto alone = attend(filled.cache, g, qt, 1, first + t);
            ASSERT_EQ(std::memcmp(alone.data(), run.data() + t * d, d * sizeof(float)), 0)
                << describe(level, storage, block_tokens, g) << " row " << t;
          }
        }
      }
    }
  }
}

TEST(AttentionKernelTest, LargeMagnitudeScoresStayFinite) {
  // Scores in the thousands: every exp must be taken relative to the running
  // max. The first tiles hold small keys and the last ones huge keys (the
  // running max jumps and the old sum rescales to zero), and the reverse.
  // Float scores this large carry absolute rounding errors near 1e-3, so the
  // tolerance is looser than at unit scale.
  const Geometry g{8, 2, 16};
  const std::size_t first = 50, rows = 14, len = first + rows;
  const auto cfg = config_for(g, 96);
  const std::size_t kv = cfg.kv_dim();
  for (simd::Level level : levels()) {
    ScopedLevel scoped(level);
    for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
      for (bool grows : {true, false}) {
        KVCache cache(cfg, 2, cfg.max_seq, options(storage, 4));
        Rng rng(9);
        for (std::size_t p = 0; p < len; ++p) {
          const bool huge = grows == (p >= len / 2);
          const auto k = random_rows(kv, rng, huge ? 300.0 : 0.01);
          const auto v = random_rows(kv, rng, 1.0);
          cache.append_many(0, 1, k, v, 1);
          cache.commit(1);
        }
        const auto q = random_rows(rows * cfg.d_model, rng, 30.0);
        expect_matches_reference(cache, g, q, rows, first,
                                 describe(level, storage, 4, g) +
                                     (grows ? " growing" : " shrinking"),
                                 1e-3);
      }
    }
  }
}

TEST(AttentionKernelTest, RejectsShapesTheTileBuffersCannotHold) {
  std::vector<float> rows(130 * 258, 0.0f), out(rows.size());
  const std::size_t block = 0;
  simd::KVChainView view;
  view.blocks = &block;
  view.block_rows = 1;
  view.row_width = 258;
  view.k = rows.data();
  view.v = rows.data();
  const auto call = [&](std::size_t heads, std::size_t kv_heads, std::size_t head_dim,
                        const simd::KVChainView& v) {
    simd::attend_rows(rows.data(), out.data(), heads * head_dim, 1, 0, heads, kv_heads,
                      head_dim, v);
  };
  EXPECT_NO_THROW(call(128, 2, 2, view));                  // 64 query heads per KV head
  EXPECT_THROW(call(130, 2, 2, view), ContractViolation);  // 65 per KV head
  EXPECT_THROW(call(1, 1, 3, view), ContractViolation);    // odd head_dim
  EXPECT_THROW(call(1, 1, 258, view), ContractViolation);  // above 256
  simd::KVChainView both = view;  // both storages set
  both.k_codes = reinterpret_cast<const std::int8_t*>(rows.data());
  EXPECT_THROW(call(1, 1, 2, both), ContractViolation);
}

}  // namespace
}  // namespace orinsim
