#include "loadgen.h"

#include <cmath>
#include <stdexcept>

namespace orinbench {

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeededRng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::size_t SeededRng::below(std::size_t n) {
  if (n == 0) throw std::invalid_argument("SeededRng::below(0)");
  return static_cast<std::size_t>(next() % n);
}


std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream_id) {
  SeededRng rng(seed ^ (0xa0761d6478bd642fULL * (stream_id + 1)));
  return rng.next();
}

namespace {

template <typename T>
void shuffle(std::vector<T>& v, SeededRng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

}  // namespace

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_rps, std::size_t count) {
  if (!(rate_rps > 0.0)) throw std::invalid_argument("poisson_schedule: rate must be > 0");
  SeededRng rng(seed);
  const std::size_t n_gaps = count > 0 ? count - 1 : 0;
  std::vector<double> gaps(n_gaps);
  for (std::size_t k = 0; k < n_gaps; ++k) {
    const double u = (static_cast<double>(k) + 0.5) / static_cast<double>(n_gaps);
    gaps[k] = -std::log1p(-u) / rate_rps;
  }
  shuffle(gaps, rng);
  std::vector<double> out(count, 0.0);
  for (std::size_t k = 0; k < n_gaps; ++k) out[k + 1] = out[k] + gaps[k];
  return out;
}

std::vector<TokenId> word_stream(const orinsim::Tokenizer& tokenizer,
                                 const orinsim::workload::Corpus& corpus) {
  std::vector<TokenId> out;
  for (const std::string& paragraph : corpus.paragraphs) {
    for (TokenId id : tokenizer.encode(paragraph)) {
      if (tokenizer.is_word(id)) out.push_back(id);
    }
  }
  return out;
}

namespace {

std::vector<TokenId> window(const std::vector<TokenId>& stream, SeededRng& rng,
                            std::size_t len) {
  if (stream.size() <= len) throw std::invalid_argument("word stream shorter than a prompt");
  const std::size_t off = rng.below(stream.size() - len);
  return {stream.begin() + static_cast<std::ptrdiff_t>(off),
          stream.begin() + static_cast<std::ptrdiff_t>(off + len)};
}

}  // namespace

ChatPrompts chat_prompts(const std::vector<TokenId>& stream, std::uint64_t seed,
                         std::size_t count, const ChatShape& shape) {
  if (shape.system_prompts == 0) throw std::invalid_argument("chat: no system prompts");
  SeededRng rng(seed);
  ChatPrompts out;
  for (std::size_t k = 0; k < shape.system_prompts; ++k) {
    out.system.push_back(window(stream, rng, shape.system_tokens));
  }
  std::vector<double> cdf(shape.system_prompts);
  double acc = 0.0;
  for (std::size_t k = 0; k < shape.system_prompts; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), shape.zipf_s);
    cdf[k] = acc;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform() * acc;
    std::size_t k = 0;
    while (k + 1 < cdf.size() && u >= cdf[k]) ++k;
    std::vector<TokenId> prompt = out.system[k];
    const std::vector<TokenId> user = window(stream, rng, shape.user_tokens);
    prompt.insert(prompt.end(), user.begin(), user.end());
    out.prompts.push_back(std::move(prompt));
    out.system_of.push_back(k);
  }
  return out;
}

std::vector<std::vector<TokenId>> long_prompts(const std::vector<TokenId>& stream,
                                               std::uint64_t order_seed,
                                               std::uint64_t content_seed, std::size_t count,
                                               std::size_t min_tokens, std::size_t max_tokens) {
  if (min_tokens == 0 || max_tokens < min_tokens) {
    throw std::invalid_argument("long_prompts: bad length range");
  }
  SeededRng order(order_seed);
  SeededRng content(content_seed);
  std::vector<std::size_t> lengths(count);
  const double span = static_cast<double>(max_tokens - min_tokens);
  for (std::size_t k = 0; k < count; ++k) {
    const double u = (static_cast<double>(k) + 0.5) / static_cast<double>(count);
    lengths[k] = min_tokens + static_cast<std::size_t>(std::llround(u * span));
  }
  shuffle(lengths, order);
  std::vector<std::vector<TokenId>> out;
  for (std::size_t len : lengths) out.push_back(window(stream, content, len));
  return out;
}

}  // namespace orinbench
