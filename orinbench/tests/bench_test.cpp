// Tests of the benchmark's own logic: tail selection, seeded load
// generation, the SSE client parser and the metric-name grammar.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "http_client.h"
#include "loadgen.h"
#include "stats.h"

namespace orinbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n, so value == rank
  return v;
}

TEST(TailStat, ReportsTheRankWithExactlyTenBeyond) {
  const TailStat t100 = tail_stat(ramp(100));
  EXPECT_TRUE(t100.rule_met);
  EXPECT_DOUBLE_EQ(t100.percentile, 90.0);
  EXPECT_DOUBLE_EQ(t100.value, 90.0);
  EXPECT_EQ(t100.beyond, 10u);
  EXPECT_EQ(t100.n, 100u);

  const TailStat t1000 = tail_stat(ramp(1000));
  EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t1000.value, 990.0);

  const TailStat t31 = tail_stat(ramp(31));  // a long_ctx run's sample count
  EXPECT_DOUBLE_EQ(t31.value, 21.0);
  EXPECT_DOUBLE_EQ(t31.percentile, 100.0 * 21.0 / 31.0);
  EXPECT_EQ(t31.beyond, 10u);

  const TailStat t11 = tail_stat(ramp(11));
  EXPECT_TRUE(t11.rule_met);
  EXPECT_DOUBLE_EQ(t11.value, 1.0);
}

TEST(TailStat, TenOrFewerSamplesFallBackToTheMedian) {
  const TailStat t10 = tail_stat(ramp(10));
  EXPECT_FALSE(t10.rule_met);
  EXPECT_DOUBLE_EQ(t10.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t10.value, 5.0);
  EXPECT_EQ(t10.beyond, 5u);

  EXPECT_FALSE(tail_stat({}).rule_met);
  EXPECT_DOUBLE_EQ(tail_stat({}).value, 0.0);
}

TEST(TailStat, IgnoresInputOrder) {
  std::vector<double> v = ramp(200);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(tail_stat(v).value, 190.0);
  EXPECT_DOUBLE_EQ(median(v), 100.0);
}

std::vector<TokenId> fake_stream() {
  std::vector<TokenId> s(5000);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<TokenId>(300 + (i * 31) % 400);
  return s;
}

TEST(LoadGen, SameSeedGivesBitIdenticalScheduleAndPrompts) {
  const std::vector<TokenId> stream = fake_stream();
  const std::vector<double> a = poisson_schedule(derive_seed(7, 1), 2.0, 64);
  const std::vector<double> b = poisson_schedule(derive_seed(7, 1), 2.0, 64);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_NE(a, poisson_schedule(derive_seed(8, 1), 2.0, 64));

  const ChatShape shape{4, 1.1, 56, 8};
  const ChatPrompts c1 = chat_prompts(stream, derive_seed(7, 2), 32, shape);
  const ChatPrompts c2 = chat_prompts(stream, derive_seed(7, 2), 32, shape);
  EXPECT_EQ(c1.prompts, c2.prompts);
  EXPECT_EQ(c1.system_of, c2.system_of);
  for (std::size_t i = 0; i < c1.prompts.size(); ++i) {
    ASSERT_EQ(c1.prompts[i].size(), 64u);
    const auto& sys = c1.system[c1.system_of[i]];
    EXPECT_TRUE(std::equal(sys.begin(), sys.end(), c1.prompts[i].begin()));
  }
  EXPECT_NE(c1.prompts, chat_prompts(stream, derive_seed(8, 2), 32, shape).prompts);

  const auto l1 = long_prompts(stream, 5, 99, 16, 100, 200);
  EXPECT_EQ(l1, long_prompts(stream, 5, 99, 16, 100, 200));
  const auto l2 = long_prompts(stream, 5, 98, 16, 100, 200);
  EXPECT_NE(l1, l2);
  for (std::size_t i = 0; i < l1.size(); ++i) {
    EXPECT_GE(l1[i].size(), 100u);
    EXPECT_LE(l1[i].size(), 200u);
    EXPECT_EQ(l1[i].size(), l2[i].size());  // the order seed fixes the lengths
  }
}

TEST(LoadGen, ScheduleMeanRateIsTheRequestedRate) {
  const std::vector<double> s = poisson_schedule(3, 4.0, 20000);
  EXPECT_NEAR(static_cast<double>(s.size()) / s.back(), 4.0, 0.15);
}

const char kResponse[] =
    "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nConnection: close\r\n\r\n"
    "data: {\"choices\":[{\"text\":\"a\"}]}\n\n"
    "data: {\"choices\":[{\"text\":\"b\"}]}\n\n"
    "data: {\"choices\":[{\"text\":\"\",\"finish_reason\":\"length\"}]}\n\n"
    "data: [DONE]\n\n";

std::vector<std::string> parse_in_pieces(const std::string& bytes, std::size_t piece) {
  SseParser p;
  std::vector<std::string> events;
  for (std::size_t off = 0; off < bytes.size(); off += piece) {
    p.feed(std::string_view(bytes).substr(off, piece));
    for (std::string& e : p.take_events()) events.push_back(std::move(e));
  }
  EXPECT_TRUE(p.head_complete());
  EXPECT_EQ(p.status(), 200);
  return events;
}

TEST(SseParser, SplitAndCoalescedReadsYieldTheSameEvents) {
  const std::string bytes = kResponse;
  const std::vector<std::string> whole = parse_in_pieces(bytes, bytes.size());
  ASSERT_EQ(whole.size(), 4u);
  EXPECT_EQ(whole[0], "{\"choices\":[{\"text\":\"a\"}]}");
  EXPECT_EQ(whole[3], "[DONE]");
  for (std::size_t piece : {1u, 2u, 3u, 7u, 16u, 61u}) {
    EXPECT_EQ(parse_in_pieces(bytes, piece), whole) << "piece " << piece;
  }
}

TEST(SseParser, CrlfLinesAndMultiLineData) {
  SseParser p;
  p.feed("HTTP/1.1 200 OK\r\n\r\ndata: one\r\ndata: two\r\n\r\ndata: x");
  EXPECT_EQ(p.take_events(), std::vector<std::string>{"one\ntwo"});
  p.feed("\n\n");
  EXPECT_EQ(p.take_events(), std::vector<std::string>{"x"});
}

TEST(SseParser, StatusOfRefusalsAndBrokenHeads) {
  SseParser refused;
  refused.feed("HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}");
  EXPECT_EQ(refused.status(), 429);
  EXPECT_TRUE(refused.take_events().empty());

  SseParser partial;
  partial.feed("HTTP/1.1 200 OK\r\n");
  EXPECT_FALSE(partial.head_complete());
  EXPECT_EQ(parse_status_line("garbage"), 0);
  EXPECT_EQ(parse_status_line("HTTP/1.1 2x0 OK"), 0);
}

TEST(MetricNames, Grammar) {
  for (const char* ok : {"ttft_p50_ms", "model.prefill_tok_s.short", "a", "9-lives",
                         "serving.step_decode_ms_p99"}) {
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "slash/name", "tok/s",
                          "uni\xc3\xa9", "quote\""}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'x')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'x')));
}

TEST(MetricNames, MetricSetRejectsBadOrRepeatedNames) {
  MetricSet m;
  m.add("latency_ms", 1.5, "ms");
  EXPECT_THROW(m.add("latency_ms", 2.0, "ms"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 2.0, "ms"), std::invalid_argument);
  EXPECT_EQ(m.to_json(), "{\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}");
}

}  // namespace
}  // namespace orinbench
