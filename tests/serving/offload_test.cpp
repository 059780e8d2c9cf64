#include "serving/offload.h"

#include <gtest/gtest.h>

namespace orinsim::serving {
namespace {

class OffloadTest : public ::testing::Test {
 protected:
  OffloadTest() : session_("llama3", DType::kF16, workload::Dataset::kWikiText2) {
    config_.max_batch = 16;
    config_.arrivals.rate_rps = 4.0;
    config_.arrivals.total_requests = 48;
  }
  SimSession session_;
  HybridConfig config_;
};

TEST_F(OffloadTest, CloudEndpointLatencyComposition) {
  CloudEndpoint ep;
  const double latency = ep.request_latency_s(32, 64);
  // At least RTT + provider queue + decode time.
  EXPECT_GT(latency, ep.rtt_s + ep.provider_queue_s + 64.0 / ep.decode_tps - 1e-9);
  EXPECT_LT(latency, 5.0);
}

TEST_F(OffloadTest, CloudCostPerToken) {
  CloudEndpoint ep;
  ep.usd_per_1k_tokens = 0.02;
  EXPECT_NEAR(ep.request_cost_usd(500, 500), 0.02, 1e-12);
}

TEST_F(OffloadTest, EdgeOnlyUsesNoCloud) {
  config_.policy = OffloadPolicy::kEdgeOnly;
  const HybridResult r = simulate_hybrid(session_, config_);
  EXPECT_EQ(r.cloud_requests, 0u);
  EXPECT_EQ(r.edge_requests, 48u);
  EXPECT_EQ(r.cloud_cost_usd, 0.0);
  EXPECT_GT(r.edge_energy_j, 0.0);
  EXPECT_EQ(r.latencies_s.size(), 48u);
}

TEST_F(OffloadTest, CloudOnlyUsesNoEdge) {
  config_.policy = OffloadPolicy::kCloudOnly;
  const HybridResult r = simulate_hybrid(session_, config_);
  EXPECT_EQ(r.edge_requests, 0u);
  EXPECT_EQ(r.cloud_requests, 48u);
  EXPECT_EQ(r.edge_energy_j, 0.0);
  EXPECT_GT(r.cloud_cost_usd, 0.0);
}

TEST_F(OffloadTest, QueueDepthSpillsUnderLoad) {
  config_.policy = OffloadPolicy::kQueueDepth;
  config_.queue_threshold = 4;
  config_.arrivals.rate_rps = 50.0;  // flood
  const HybridResult r = simulate_hybrid(session_, config_);
  EXPECT_GT(r.cloud_requests, 0u);
  EXPECT_GT(r.edge_requests, 0u);
  EXPECT_EQ(r.edge_requests + r.cloud_requests, 48u);
}

TEST_F(OffloadTest, QueueDepthIdleStaysOnEdge) {
  config_.policy = OffloadPolicy::kQueueDepth;
  config_.queue_threshold = 16;
  config_.arrivals.rate_rps = 0.05;  // trickle
  const HybridResult r = simulate_hybrid(session_, config_);
  EXPECT_EQ(r.cloud_requests, 0u);
}

TEST_F(OffloadTest, HybridImprovesTailLatencyUnderLoad) {
  config_.arrivals.rate_rps = 20.0;
  config_.policy = OffloadPolicy::kEdgeOnly;
  const HybridResult edge = simulate_hybrid(session_, config_);
  config_.policy = OffloadPolicy::kQueueDepth;
  config_.queue_threshold = 8;
  const HybridResult hybrid = simulate_hybrid(session_, config_);
  EXPECT_LT(hybrid.p95_latency_s(), edge.p95_latency_s());
  EXPECT_GT(hybrid.cloud_cost_usd, 0.0);
}

TEST_F(OffloadTest, LatencyThresholdRoutesWhenSloUnreachable) {
  config_.policy = OffloadPolicy::kLatencyThreshold;
  config_.latency_slo_s = 1.0;  // unreachable on the edge (batch takes ~10s)
  const HybridResult r = simulate_hybrid(session_, config_);
  EXPECT_EQ(r.edge_requests, 0u);
  EXPECT_EQ(r.cloud_requests, 48u);
}

TEST_F(OffloadTest, LatencyThresholdKeepsEdgeWhenRelaxed) {
  config_.policy = OffloadPolicy::kLatencyThreshold;
  config_.latency_slo_s = 1e6;
  const HybridResult r = simulate_hybrid(session_, config_);
  EXPECT_EQ(r.cloud_requests, 0u);
}

TEST_F(OffloadTest, PolicyNames) {
  EXPECT_EQ(offload_policy_name(OffloadPolicy::kEdgeOnly), "edge-only");
  EXPECT_EQ(offload_policy_name(OffloadPolicy::kQueueDepth), "queue-depth");
}

}  // namespace
}  // namespace orinsim::serving
