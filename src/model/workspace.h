// Per-forward-pass scratch for the functional transformer engine.
//
// A Model shares immutable quantized weights; everything a forward pass
// mutates lives here. One workspace per concurrently-executing lane/worker
// makes the forward pass re-entrant: the batched decode loop runs lanes in
// parallel on a ThreadPool with one workspace per shard, while serial
// callers use the Model's built-in default workspace.
//
// `pool` is how threads reach the kernels: every projection of a forward
// pass through this workspace shards its output rows over it. Null (the
// default) runs them serially. Lane-sharded callers may set it to the pool
// running the lanes: a kernel called from inside a lane shard runs inline.
#pragma once

#include <vector>

#include "core/thread_pool.h"
#include "model/config.h"
#include "quant/quantize.h"

namespace orinsim {

struct InferenceWorkspace {
  explicit InferenceWorkspace(const TransformerConfig& c)
      : d_model(c.d_model),
        kv_dim(c.kv_dim()),
        d_ff(c.d_ff),
        hidden(c.d_model) {
    ensure_rows(1);
  }

  // Grow the row buffers to hold `n` rows (no-op once sized; vectors never
  // shrink, so alternating row counts stay allocation-free after the first
  // pass).
  void ensure_rows(std::size_t n) {
    if (n <= row_capacity) return;
    for (auto* buf : {&x, &normed, &q, &attn, &attn_proj, &mlp_out}) buf->resize(n * d_model);
    for (auto* buf : {&k, &v}) buf->resize(n * kv_dim);
    for (auto* buf : {&gate, &up, &ff}) buf->resize(n * d_ff);
    seqs.resize(n);
    row_capacity = n;
  }

  std::size_t d_model, kv_dim, d_ff;
  // Row-major [rows, features] block scratch: one row per token of a
  // forward pass (a prefill chunk's positions or a decode batch's lanes).
  std::vector<float> x, normed, q, k, v, attn, attn_proj, gate, up, ff, mlp_out;
  // Row -> cache sequence map for single-sequence chunks.
  std::vector<std::size_t> seqs;
  // Final hidden state of the lane currently being advanced.
  std::vector<float> hidden;
  // Reused INT8 activation codes: act8 for one-row projections, act8_rows
  // for multi-row ones (one quantization shared across fused Q/K/V).
  quant::ActivationInt8 act8;
  quant::ActivationBatchInt8 act8_rows;
  std::size_t row_capacity = 0;
  ThreadPool* pool = nullptr;
};

}  // namespace orinsim
