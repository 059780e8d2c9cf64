// Edge-cloud hybrid serving: the coupling of edge inferencing with cloud
// endpoints that the paper's conclusion points to as future work.
//
// A CloudEndpoint models a hosted LLM API (network RTT + uplink transfer +
// provider queue + prefill/decode service rates + per-token price). The
// hybrid simulator batches the edge share exactly as StaticBatchPolicy does
// (same arrivals, same batch costs), but a routing policy may send requests
// to the cloud:
//
//   kEdgeOnly / kCloudOnly : baselines
//   kQueueDepth            : overflow to the cloud when more than
//                            `queue_threshold` requests are waiting
//   kLatencyThreshold      : route to the cloud when the predicted edge
//                            completion time exceeds `latency_slo_s`
//
// The schedule is emitted as one trace::ExecutionTimeline: edge batches are
// sequential kDecode events on the device cursor, cloud requests are
// overlapping kOffload events placed at their arrival time (power unset —
// cloud joules are not the edge board's). Counts, latencies, energy and
// makespan are derived from the timeline, which keeps edge energy (joules)
// separate from cloud cost (USD) so the trade-off the paper motivates —
// privacy/cost vs latency — is quantified per policy.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "serving/session.h"
#include "trace/timeline.h"
#include "workload/arrivals.h"

namespace orinsim::serving {

struct CloudEndpoint {
  std::string name = "hosted-llm-api";
  double rtt_s = 0.08;                  // network round trip
  double uplink_mbps = 20.0;            // edge uplink for the prompt payload
  double provider_queue_s = 0.2;        // queuing/admission on the provider side
  double prefill_tps = 8000.0;          // prompt tokens/s
  double decode_tps = 60.0;             // generated tokens/s per stream
  double usd_per_1k_tokens = 0.02;      // blended in+out price
  double bytes_per_token = 4.0;         // prompt wire size

  // End-to-end latency and cost of one request (in prompt tokens, out
  // generated tokens). Cloud capacity is modeled as elastic (no edge-side
  // queueing for cloud requests).
  double request_latency_s(std::size_t in_tokens, std::size_t out_tokens) const;
  double request_cost_usd(std::size_t in_tokens, std::size_t out_tokens) const;
};

enum class OffloadPolicy { kEdgeOnly, kCloudOnly, kQueueDepth, kLatencyThreshold };

std::string offload_policy_name(OffloadPolicy policy);

struct HybridConfig {
  workload::ArrivalConfig arrivals;
  std::size_t max_batch = 32;           // edge batch cap
  workload::SeqConfig seq = workload::seq_config_default();
  CloudEndpoint cloud;
  OffloadPolicy policy = OffloadPolicy::kQueueDepth;
  std::size_t queue_threshold = 16;     // kQueueDepth
  double latency_slo_s = 30.0;          // kLatencyThreshold
};

struct HybridResult {
  std::size_t edge_requests = 0;
  std::size_t cloud_requests = 0;
  std::vector<double> latencies_s;      // per request, arrival -> completion
  double edge_energy_j = 0.0;
  double cloud_cost_usd = 0.0;
  double makespan_s = 0.0;

  // The full event stream the metrics above are derived from (cloud work as
  // overlapping kOffload events, edge batches on the sequential cursor).
  trace::ExecutionTimeline timeline;

  double mean_latency_s() const;
  double p95_latency_s() const;
};

HybridResult simulate_hybrid(InferenceBackend& backend, const HybridConfig& config);

}  // namespace orinsim::serving
