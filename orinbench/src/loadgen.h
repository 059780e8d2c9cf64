// Seeded load generation: arrival schedules and prompts.
//
// Everything here is a pure function of its seed and arguments, so the
// same seed always gives the same schedule and the same prompts (pinned by
// the benchmark's tests). The program under test receives only the
// generated prompts and the send times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tokenizer/tokenizer.h"
#include "workload/corpus.h"

namespace orinbench {

using orinsim::TokenId;

// SplitMix64: small, fully specified, identical on every platform (unlike
// the std:: distributions, whose algorithms are implementation-defined).
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                     // [0, 1), 53 random bits
  std::size_t below(std::size_t n);     // [0, n)

 private:
  std::uint64_t state_;
};

// `count` Poisson send offsets (seconds from the start of the run) at
// `rate_rps`, stratified: the first send is at 0 and the count - 1 gaps are
// the midpoint quantiles of Exp(rate_rps) in a seeded random order. Every
// gap is still exponentially distributed, but a run's gap set, and so its
// span and offered load, is the same for every seed; seeds differ in how
// the gaps cluster.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_rps, std::size_t count);

// The corpus as one stream of word tokens (byte-fallback pieces dropped), so
// any window of it decodes to text that encodes back to the same tokens.
std::vector<TokenId> word_stream(const orinsim::Tokenizer& tokenizer,
                                 const orinsim::workload::Corpus& corpus);

// Chat prompts: one of `system_prompts` shared system prompts, drawn by
// Zipf(zipf_s) rank, followed by a fresh per-user suffix. Every prompt has
// system_tokens + user_tokens tokens; system_of[i] is prompt i's rank.
struct ChatShape {
  std::size_t system_prompts = 8;
  double zipf_s = 1.1;
  std::size_t system_tokens = 224;
  std::size_t user_tokens = 32;
};
struct ChatPrompts {
  std::vector<std::vector<TokenId>> system;   // the shared prefixes
  std::vector<std::vector<TokenId>> prompts;
  std::vector<std::size_t> system_of;
};
ChatPrompts chat_prompts(const std::vector<TokenId>& stream, std::uint64_t seed,
                         std::size_t count, const ChatShape& shape);

// Unshared prompts with lengths uniform in [min_tokens, max_tokens],
// stratified like the schedule: the lengths are the `count` midpoint
// quantiles of that range, ordered by `order_seed`; their tokens are drawn
// with `content_seed`.
std::vector<std::vector<TokenId>> long_prompts(const std::vector<TokenId>& stream,
                                               std::uint64_t order_seed,
                                               std::uint64_t content_seed, std::size_t count,
                                               std::size_t min_tokens, std::size_t max_tokens);

// Sub-seed for stream `stream_id` of a run seeded with `seed`, so the
// schedule, the prompts and each repetition draw independent streams.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream_id);

}  // namespace orinbench
