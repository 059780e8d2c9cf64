// Trace-conservation properties: every metric the simulators report must be
// re-derivable from their StepEvent stream, and the stream itself must be
// gap-free (durations sum to the makespan). These are the invariants that
// make the timeline the single source of truth.
#include <gtest/gtest.h>

#include "serving/offload.h"
#include "serving/serving_device.h"
#include "sim/inference_sim.h"
#include "sim/speculative_sim.h"
#include "trace/timeline.h"

namespace orinsim {
namespace {

constexpr double kRelTol = 1e-9;

void expect_near_rel(double actual, double expected) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * kRelTol + 1e-12);
}

TEST(TraceConservationTest, SimRunDurationsSumToLatency) {
  sim::InferenceSim simulator;
  sim::SimRequest rq;
  rq.model_key = "llama3";
  rq.dtype = DType::kF16;
  rq.batch = 32;
  rq.noise_sigma = 0.0;  // exact mode: reported latency == modeled schedule
  rq.runs = 1;
  const sim::SimResult r = simulator.run(rq);
  ASSERT_FALSE(r.oom);
  const trace::ExecutionTimeline& tl = r.timeline;
  // setup + prefill + one event per output token
  EXPECT_EQ(tl.events().size(), 2u + rq.out_tokens);
  // Sequential, gap-free: durations sum to the makespan.
  expect_near_rel(tl.duration_sum_s(), tl.makespan_s());
  // Every event is powered, so the power signal spans the whole run and the
  // reported exact-mode latency equals the event-duration sum.
  EXPECT_DOUBLE_EQ(tl.power_signal().duration_s(), tl.duration_sum_s());
  EXPECT_DOUBLE_EQ(r.latency_s, tl.duration_sum_s());
  // Timeline energy == exact integral of the derived power signal.
  expect_near_rel(tl.total_energy_j(), tl.power_signal().exact_energy_j());
  // Phase view: prefill time + decode time + setup time == latency.
  expect_near_rel(tl.phase_time_s(trace::Phase::kSetup) +
                      tl.phase_time_s(trace::Phase::kPrefill) +
                      tl.phase_time_s(trace::Phase::kDecode),
                  r.latency_s);
}

// Evenly spaced llama3 requests at the paper's default sequence split.
std::vector<serving::Request> even_requests(double rps, std::size_t count) {
  workload::ArrivalConfig arrivals;
  arrivals.rate_rps = rps;
  arrivals.total_requests = count;
  return serving::requests_from_arrivals(arrivals.generate(),
                                         workload::seq_config_default());
}

TEST(TraceConservationTest, SchedulerMetricsMatchTimeline) {
  serving::SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  const serving::EngineResult r =
      serving::StaticBatchPolicy(session, 8, workload::seq_config_default())
          .run(even_requests(4.0, 32));
  const trace::ExecutionTimeline& tl = r.timeline;

  // Gap-free device schedule: stalls + batches tile the makespan.
  expect_near_rel(tl.duration_sum_s(), r.makespan_s);
  EXPECT_DOUBLE_EQ(tl.total_energy_j(), r.energy_j);
  EXPECT_EQ(tl.count(trace::Phase::kDecode), r.decode_steps);

  // Request bookkeeping is consistent between views.
  ASSERT_EQ(tl.requests().size(), r.latencies_s.size());
  for (std::size_t i = 0; i < r.latencies_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(tl.requests()[i].latency_s(), r.latencies_s[i]);
  }
  const trace::LatencySummary summary = tl.latency_summary();
  EXPECT_DOUBLE_EQ(summary.mean_s, r.mean_latency_s());
  EXPECT_DOUBLE_EQ(summary.p95_s, r.p95_latency_s());
}

TEST(TraceConservationTest, ContinuousMetricsMatchTimeline) {
  serving::ServingDevice::SimConfig dc;
  dc.max_concurrency = 16;
  const serving::EngineResult r = serving::ServingDevice(dc).run(even_requests(2.0, 32));
  const trace::ExecutionTimeline& tl = r.timeline;

  expect_near_rel(tl.duration_sum_s(), r.makespan_s);
  EXPECT_DOUBLE_EQ(tl.total_energy_j(), r.energy_j);
  expect_near_rel(tl.total_energy_j(), tl.power_signal().exact_energy_j());
  EXPECT_EQ(tl.count(trace::Phase::kDecode), r.decode_steps);
  EXPECT_DOUBLE_EQ(tl.time_weighted_batch(), r.mean_active);
  ASSERT_EQ(tl.request_latencies().size(), r.latencies_s.size());
}

TEST(TraceConservationTest, HybridEdgeOnlyMatchesStaticScheduler) {
  // The same arrival stream through the hybrid simulator with cloud disabled
  // must reproduce StaticBatchPolicy's energy and latency stats exactly —
  // both are derived from equivalent event streams.
  serving::SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  serving::HybridConfig hc;
  hc.max_batch = 16;
  hc.arrivals.rate_rps = 4.0;
  hc.arrivals.total_requests = 48;
  hc.policy = serving::OffloadPolicy::kEdgeOnly;
  const serving::HybridResult hybrid = simulate_hybrid(session, hc);

  const serving::EngineResult stat =
      serving::StaticBatchPolicy(session, hc.max_batch, hc.seq)
          .run(serving::requests_from_arrivals(hc.arrivals.generate(), hc.seq));

  EXPECT_EQ(hybrid.edge_requests, hc.arrivals.total_requests);
  EXPECT_DOUBLE_EQ(hybrid.edge_energy_j, stat.energy_j);
  EXPECT_DOUBLE_EQ(hybrid.mean_latency_s(), stat.mean_latency_s());
  EXPECT_DOUBLE_EQ(hybrid.makespan_s, stat.makespan_s);
}

TEST(TraceConservationTest, HybridCloudEventsOverlapOffDevice) {
  serving::SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  serving::HybridConfig hc;
  hc.max_batch = 16;
  hc.arrivals.rate_rps = 50.0;  // flood -> spill
  hc.arrivals.total_requests = 48;
  hc.policy = serving::OffloadPolicy::kQueueDepth;
  hc.queue_threshold = 4;
  const serving::HybridResult r = simulate_hybrid(session, hc);
  const trace::ExecutionTimeline& tl = r.timeline;

  ASSERT_GT(r.cloud_requests, 0u);
  EXPECT_EQ(tl.count(trace::Phase::kOffload), r.cloud_requests);
  // Offload events carry no power: the edge energy is the powered subset.
  EXPECT_DOUBLE_EQ(tl.total_energy_j(), r.edge_energy_j);
  for (const auto& e : tl.events()) {
    if (e.phase == trace::Phase::kOffload) EXPECT_FALSE(e.has_power());
  }
  // Makespan covers both tracks.
  EXPECT_GE(r.makespan_s, tl.now());
}

TEST(TraceConservationTest, SpeculativeRoundTimelineSumsToRoundCost) {
  const std::size_t draft_tokens = 4;
  const sim::SpeculativeEstimate est = sim::estimate_speculative_speedup(
      sim::model_by_key("llama3"), DType::kF16, sim::model_by_key("phi2"),
      DType::kF16, draft_tokens, 0.7);
  const trace::ExecutionTimeline& tl = est.round_timeline;
  EXPECT_EQ(tl.count(trace::Phase::kDraft), draft_tokens);
  EXPECT_EQ(tl.count(trace::Phase::kVerify), 1u);
  expect_near_rel(tl.duration_sum_s(), est.round_cost_s);
}

TEST(TraceConservationTest, FunctionalBackendEmitsUnpoweredEvents) {
  // The functional engine measures wall-clock steps; it has no power sensor,
  // so its events must never claim energy.
  workload::CorpusSpec spec = workload::CorpusSpec::wikitext2(77);
  spec.paragraphs = 20;
  const workload::Corpus corpus = workload::generate_corpus(spec);
  const Tokenizer tok = Tokenizer::train(corpus.text, 400);
  const auto master = MasterWeights::init_random(
      make_nano_config("llama3", tok.vocab_size()), 303);
  workload::PromptPool pool(corpus, tok, 16);
  serving::FunctionalSession session(master, DType::kF32, pool);

  trace::ExecutionTimeline tl;
  serving::BatchRequest rq;
  rq.batch = 2;
  rq.seq.input = 8;
  rq.seq.output = 4;
  rq.seq.total = 12;
  const serving::BatchResult r = session.run(rq, &tl);
  ASSERT_FALSE(r.oom);
  EXPECT_EQ(tl.count(trace::Phase::kPrefill), 1u);
  EXPECT_EQ(tl.count(trace::Phase::kDecode), rq.seq.output);
  EXPECT_DOUBLE_EQ(tl.total_energy_j(), 0.0);
  for (const auto& e : tl.events()) EXPECT_FALSE(e.has_power());
  // Measured wall-clock events cover real time.
  EXPECT_GT(tl.duration_sum_s(), 0.0);
  EXPECT_LE(tl.duration_sum_s(), r.latency_s + 1e-3);
}

}  // namespace
}  // namespace orinsim
