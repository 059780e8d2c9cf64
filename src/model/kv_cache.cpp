#include "model/kv_cache.h"

#include <algorithm>
#include <cmath>

namespace orinsim {

namespace {

std::size_t blocks_for(std::size_t tokens, std::size_t block_tokens) {
  return (tokens + block_tokens - 1) / block_tokens;
}

}  // namespace

KVCache::KVCache(const TransformerConfig& config, std::size_t batch, std::size_t max_seq,
                 KVStorage storage)
    : KVCache(config, batch, max_seq, KVCacheOptions{storage}) {}

KVCache::KVCache(const TransformerConfig& config, std::size_t batch, std::size_t max_seq,
                 const KVCacheOptions& options)
    : batch_(batch),
      max_seq_(max_seq),
      kv_dim_(config.kv_dim()),
      n_layers_(config.n_layers),
      storage_(options.storage),
      layout_(options.layout),
      block_tokens_(options.block_tokens) {
  ORINSIM_CHECK(batch > 0 && max_seq > 0, "KVCache requires positive batch and max_seq");
  ORINSIM_CHECK(max_seq <= config.max_seq, "KVCache max_seq exceeds model max_seq");

  std::size_t rows = batch_ * max_seq_;
  if (layout_ == KVLayout::kDense) {
    dense_ids_.resize(batch_);
    for (std::size_t i = 0; i < batch_; ++i) dense_ids_[i] = i;
  } else {
    ORINSIM_CHECK(block_tokens_ > 0, "KVCache block_tokens must be positive");
    std::size_t pool_blocks = options.max_blocks;
    if (pool_blocks == 0) {
      // Full dense capacity: every sequence can reach max_seq, so existing
      // call sites never see exhaustion.
      pool_blocks = batch_ * blocks_for(max_seq_, block_tokens_);
    }
    allocator_ = std::make_unique<BlockAllocator>(pool_blocks,
                                                  block_tokens_ * bytes_per_row());
    tables_.resize(batch_);
    rows = pool_blocks * block_tokens_;
  }

  if (storage_ == KVStorage::kF32) {
    keys_.resize(n_layers_);
    values_.resize(n_layers_);
    for (std::size_t l = 0; l < n_layers_; ++l) {
      keys_[l].assign(rows * kv_dim_, 0.0f);
      values_[l].assign(rows * kv_dim_, 0.0f);
    }
  } else {
    key_codes_.resize(n_layers_);
    value_codes_.resize(n_layers_);
    key_scales_.resize(n_layers_);
    value_scales_.resize(n_layers_);
    for (std::size_t l = 0; l < n_layers_; ++l) {
      key_codes_[l].assign(rows * kv_dim_, 0);
      value_codes_[l].assign(rows * kv_dim_, 0);
      key_scales_[l].assign(rows, 0.0f);
      value_scales_[l].assign(rows, 0.0f);
    }
  }
  lengths_.assign(batch_, 0);
  staged_.assign(batch_, 0);
}

std::size_t KVCache::bytes_per_row() const noexcept {
  const std::size_t per_vector = storage_ == KVStorage::kF32
                                     ? kv_dim_ * sizeof(float)
                                     : kv_dim_ * sizeof(std::int8_t) + sizeof(float);
  return n_layers_ * 2 * per_vector;
}

std::size_t KVCache::row(std::size_t b, std::size_t pos) const {
  ORINSIM_DCHECK(b < batch_ && pos < max_seq_, "kv cache index out of range");
  if (layout_ == KVLayout::kDense) return b * max_seq_ + pos;
  const std::size_t block_index = pos / block_tokens_;
  ORINSIM_CHECK(block_index < tables_[b].size(), "KVCache: position has no mapped block");
  return tables_[b][block_index] * block_tokens_ + pos % block_tokens_;
}

void KVCache::make_writable(std::size_t b, std::size_t block_index) {
  std::vector<std::size_t>& table = tables_[b];
  const std::size_t old_id = table[block_index];
  if (allocator_->ref_count(old_id) <= 1) return;
  const std::size_t id = allocator_->alloc();
  ORINSIM_CHECK(id != BlockAllocator::kNoBlock,
                "KVCache: KV block pool exhausted during copy-on-write");
  const std::size_t src = old_id * block_tokens_;
  const std::size_t dst = id * block_tokens_;
  for (std::size_t l = 0; l < n_layers_; ++l) {
    if (storage_ == KVStorage::kF32) {
      std::copy_n(keys_[l].begin() + src * kv_dim_, block_tokens_ * kv_dim_,
                  keys_[l].begin() + dst * kv_dim_);
      std::copy_n(values_[l].begin() + src * kv_dim_, block_tokens_ * kv_dim_,
                  values_[l].begin() + dst * kv_dim_);
    } else {
      std::copy_n(key_codes_[l].begin() + src * kv_dim_, block_tokens_ * kv_dim_,
                  key_codes_[l].begin() + dst * kv_dim_);
      std::copy_n(value_codes_[l].begin() + src * kv_dim_, block_tokens_ * kv_dim_,
                  value_codes_[l].begin() + dst * kv_dim_);
      std::copy_n(key_scales_[l].begin() + src, block_tokens_, key_scales_[l].begin() + dst);
      std::copy_n(value_scales_[l].begin() + src, block_tokens_,
                  value_scales_[l].begin() + dst);
    }
  }
  allocator_->release(old_id);
  table[block_index] = id;
}

void KVCache::ensure_writable(std::size_t b, std::size_t first, std::size_t count) {
  if (layout_ == KVLayout::kDense) return;
  std::vector<std::size_t>& table = tables_[b];
  const std::size_t last = first + count - 1;
  while (table.size() * block_tokens_ <= last) {
    const std::size_t id = allocator_->alloc();
    ORINSIM_CHECK(id != BlockAllocator::kNoBlock,
                  "KVCache: KV block pool exhausted (reserve with try_reserve and preempt)");
    table.push_back(id);
  }
  for (std::size_t bi = first / block_tokens_; bi <= last / block_tokens_; ++bi) {
    make_writable(b, bi);
  }
}

void KVCache::store_quantized(std::vector<std::int8_t>& codes, std::vector<float>& scales,
                              std::size_t row_index, std::span<const float> data) {
  float absmax = 0.0f;
  for (float v : data) absmax = std::max(absmax, std::fabs(v));
  const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
  scales[row_index] = scale;
  std::int8_t* out = codes.data() + row_index * kv_dim_;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const int code = static_cast<int>(std::lround(data[i] / scale));
    out[i] = static_cast<std::int8_t>(std::clamp(code, -127, 127));
  }
}

std::size_t KVCache::append_many(std::size_t layer, std::size_t b, std::span<const float> k,
                                 std::span<const float> v, std::size_t count) {
  ORINSIM_CHECK(layer < n_layers_ && b < batch_, "KVCache::append_many out of range");
  ORINSIM_CHECK(count > 0 && k.size() == count * kv_dim_ && v.size() == k.size(),
                "KVCache::append_many dim mismatch");
  const std::size_t first = lengths_[b];
  ORINSIM_CHECK(first + count <= max_seq_, "KVCache overflow: sequence exceeds max_seq");
  ensure_writable(b, first, count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = row(b, first + i);
    if (storage_ == KVStorage::kF32) {
      std::copy_n(k.begin() + i * kv_dim_, kv_dim_, keys_[layer].begin() + r * kv_dim_);
      std::copy_n(v.begin() + i * kv_dim_, kv_dim_, values_[layer].begin() + r * kv_dim_);
    } else {
      store_quantized(key_codes_[layer], key_scales_[layer], r,
                      k.subspan(i * kv_dim_, kv_dim_));
      store_quantized(value_codes_[layer], value_scales_[layer], r,
                      v.subspan(i * kv_dim_, kv_dim_));
    }
  }
  staged_[b] = std::max(staged_[b], count);
  return first;
}

void KVCache::commit(std::size_t b, std::size_t count) {
  ORINSIM_CHECK(b < batch_, "KVCache::commit out of range");
  ORINSIM_CHECK(count > 0 && lengths_[b] + count <= max_seq_, "KVCache::commit overflow");
  lengths_[b] += count;
  staged_[b] = 0;
}

bool KVCache::try_reserve(std::size_t b, std::size_t count) {
  ORINSIM_CHECK(b < batch_, "KVCache::try_reserve out of range");
  ORINSIM_CHECK(count > 0, "KVCache::try_reserve needs a positive count");
  const std::size_t need_len = lengths_[b] + count;
  if (need_len > max_seq_) return false;
  if (layout_ == KVLayout::kDense) return true;
  std::vector<std::size_t>& table = tables_[b];
  const std::size_t needed = blocks_for(need_len, block_tokens_);
  if (needed <= table.size()) return true;
  std::vector<std::size_t> fresh;
  fresh.reserve(needed - table.size());
  if (!allocator_->alloc_many(needed - table.size(), fresh)) return false;
  table.insert(table.end(), fresh.begin(), fresh.end());
  return true;
}

void KVCache::fork_sequence(std::size_t src, std::size_t dst) {
  ORINSIM_CHECK(layout_ == KVLayout::kPaged, "KVCache::fork_sequence requires paged layout");
  ORINSIM_CHECK(src < batch_ && dst < batch_ && src != dst,
                "KVCache::fork_sequence out of range");
  ORINSIM_CHECK(staged_[src] == 0, "KVCache::fork_sequence with uncommitted appends");
  ORINSIM_CHECK(lengths_[dst] == 0 && staged_[dst] == 0 && tables_[dst].empty(),
                "KVCache::fork_sequence target must be empty");
  for (std::size_t id : tables_[src]) allocator_->retain(id);
  tables_[dst] = tables_[src];
  lengths_[dst] = lengths_[src];
}

bool KVCache::try_unshare_tail(std::size_t b) {
  ORINSIM_CHECK(layout_ == KVLayout::kPaged,
                "KVCache::try_unshare_tail requires paged layout");
  ORINSIM_CHECK(b < batch_, "KVCache::try_unshare_tail out of range");
  const std::size_t len = lengths_[b];
  if (len == 0 || len % block_tokens_ == 0) return true;  // no partial tail
  const std::size_t idx = len / block_tokens_;
  if (allocator_->ref_count(tables_[b][idx]) <= 1) return true;  // private
  if (allocator_->free_blocks() == 0) return false;
  make_writable(b, idx);
  return true;
}

std::span<const std::size_t> KVCache::block_table(std::size_t b) const {
  ORINSIM_CHECK(layout_ == KVLayout::kPaged, "KVCache::block_table requires paged layout");
  ORINSIM_CHECK(b < batch_, "KVCache::block_table out of range");
  return std::span<const std::size_t>(tables_[b]);
}

void KVCache::attach_prefix(std::size_t b, std::span<const std::size_t> blocks,
                            std::size_t tokens) {
  ORINSIM_CHECK(layout_ == KVLayout::kPaged, "KVCache::attach_prefix requires paged layout");
  ORINSIM_CHECK(b < batch_, "KVCache::attach_prefix out of range");
  ORINSIM_CHECK(lengths_[b] == 0 && staged_[b] == 0 && tables_[b].empty(),
                "KVCache::attach_prefix target must be empty");
  ORINSIM_CHECK(tokens == blocks.size() * block_tokens_,
                "KVCache::attach_prefix requires an exactly full block chain");
  ORINSIM_CHECK(tokens <= max_seq_, "KVCache::attach_prefix exceeds max_seq");
  for (std::size_t id : blocks) {
    ORINSIM_CHECK(allocator_->ref_count(id) > 0,
                  "KVCache::attach_prefix adopts a reference on a live block");
  }
  tables_[b].assign(blocks.begin(), blocks.end());
  lengths_[b] = tokens;
}

void KVCache::retain_block(std::size_t id) {
  ORINSIM_CHECK(layout_ == KVLayout::kPaged, "KVCache::retain_block requires paged layout");
  allocator_->retain(id);
}

void KVCache::release_block(std::size_t id) {
  ORINSIM_CHECK(layout_ == KVLayout::kPaged, "KVCache::release_block requires paged layout");
  allocator_->release(id);
}

std::size_t KVCache::block_ref_count(std::size_t id) const {
  ORINSIM_CHECK(layout_ == KVLayout::kPaged,
                "KVCache::block_ref_count requires paged layout");
  return allocator_->ref_count(id);
}

void KVCache::mark_block_cached(std::size_t id, bool cached) {
  ORINSIM_CHECK(layout_ == KVLayout::kPaged,
                "KVCache::mark_block_cached requires paged layout");
  allocator_->set_cached(id, cached);
}

std::size_t KVCache::cached_blocks() const noexcept {
  if (layout_ == KVLayout::kPaged) return allocator_->cached_blocks();
  return 0;
}

std::span<const float> KVCache::key(std::size_t layer, std::size_t b, std::size_t pos,
                                    std::span<float> scratch) const {
  ORINSIM_CHECK(layer < n_layers_ && b < batch_ && pos <= staged_end(b) && pos < max_seq_,
                "KVCache::key out of range");
  const std::size_t r = row(b, pos);
  if (storage_ == KVStorage::kF32) {
    return std::span<const float>(keys_[layer].data() + r * kv_dim_, kv_dim_);
  }
  ORINSIM_CHECK(scratch.size() >= kv_dim_, "KVCache::key needs kv_dim scratch floats");
  const std::int8_t* codes = key_codes_[layer].data() + r * kv_dim_;
  const float scale = key_scales_[layer][r];
  for (std::size_t i = 0; i < kv_dim_; ++i) {
    scratch[i] = static_cast<float>(codes[i]) * scale;
  }
  return scratch.first(kv_dim_);
}

std::span<const float> KVCache::value(std::size_t layer, std::size_t b, std::size_t pos,
                                      std::span<float> scratch) const {
  ORINSIM_CHECK(layer < n_layers_ && b < batch_ && pos <= staged_end(b) && pos < max_seq_,
                "KVCache::value out of range");
  const std::size_t r = row(b, pos);
  if (storage_ == KVStorage::kF32) {
    return std::span<const float>(values_[layer].data() + r * kv_dim_, kv_dim_);
  }
  ORINSIM_CHECK(scratch.size() >= kv_dim_, "KVCache::value needs kv_dim scratch floats");
  const std::int8_t* codes = value_codes_[layer].data() + r * kv_dim_;
  const float scale = value_scales_[layer][r];
  for (std::size_t i = 0; i < kv_dim_; ++i) {
    scratch[i] = static_cast<float>(codes[i]) * scale;
  }
  return scratch.first(kv_dim_);
}

simd::KVChainView KVCache::chain(std::size_t layer, std::size_t b,
                                 std::size_t count) const {
  ORINSIM_CHECK(layer < n_layers_ && b < batch_ && count > 0 && count - 1 <= staged_end(b) &&
                    count <= max_seq_,
                "KVCache::chain out of range");
  simd::KVChainView view;
  view.row_width = kv_dim_;
  if (layout_ == KVLayout::kDense) {
    view.blocks = dense_ids_.data() + b;
    view.block_rows = max_seq_;
  } else {
    ORINSIM_CHECK(blocks_for(count, block_tokens_) <= tables_[b].size(),
                  "KVCache::chain reads unmapped positions");
    view.blocks = tables_[b].data();
    view.block_rows = block_tokens_;
  }
  if (storage_ == KVStorage::kF32) {
    view.k = keys_[layer].data();
    view.v = values_[layer].data();
  } else {
    view.k_codes = key_codes_[layer].data();
    view.v_codes = value_codes_[layer].data();
    view.k_scales = key_scales_[layer].data();
    view.v_scales = value_scales_[layer].data();
  }
  return view;
}

void KVCache::truncate(std::size_t b, std::size_t new_len) {
  ORINSIM_CHECK(b < batch_, "KVCache::truncate out of range");
  ORINSIM_CHECK(new_len <= lengths_[b], "KVCache::truncate cannot extend");
  if (layout_ == KVLayout::kPaged) {
    std::vector<std::size_t>& table = tables_[b];
    const std::size_t keep = blocks_for(new_len, block_tokens_);
    while (table.size() > keep) {
      allocator_->release(table.back());
      table.pop_back();
    }
  }
  lengths_[b] = new_len;
  staged_[b] = 0;
}

void KVCache::reset() {
  if (layout_ == KVLayout::kPaged) {
    for (std::size_t b = 0; b < batch_; ++b) {
      for (std::size_t id : tables_[b]) allocator_->release(id);
      tables_[b].clear();
    }
  }
  std::fill(lengths_.begin(), lengths_.end(), 0);
  std::fill(staged_.begin(), staged_.end(), 0);
}

std::size_t KVCache::block_bytes() const noexcept {
  return block_tokens_ * bytes_per_row();
}

std::size_t KVCache::total_blocks() const noexcept {
  if (layout_ == KVLayout::kPaged) return allocator_->total_blocks();
  return batch_ * blocks_for(max_seq_, block_tokens_);
}

std::size_t KVCache::blocks_in_use() const noexcept {
  if (layout_ == KVLayout::kPaged) return allocator_->blocks_in_use();
  return total_blocks();  // dense reserves everything up front
}

std::size_t KVCache::free_blocks() const noexcept {
  if (layout_ == KVLayout::kPaged) return allocator_->free_blocks();
  return 0;
}

std::size_t KVCache::bytes() const noexcept {
  if (layout_ == KVLayout::kPaged) return allocator_->bytes_in_use();
  return batch_ * max_seq_ * bytes_per_row();
}

std::size_t KVCache::peak_bytes() const noexcept {
  if (layout_ == KVLayout::kPaged) return allocator_->peak_bytes();
  return bytes();
}

std::size_t KVCache::reserved_bytes() const noexcept {
  if (layout_ == KVLayout::kPaged) return allocator_->total_blocks() * block_bytes();
  return batch_ * max_seq_ * bytes_per_row();
}

std::size_t KVCache::used_bytes() const noexcept {
  std::size_t tokens = 0;
  for (std::size_t len : lengths_) tokens += len;
  return tokens * bytes_per_row();
}

}  // namespace orinsim
