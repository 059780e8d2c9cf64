#include "serving/offload.h"

#include <algorithm>

#include "core/error.h"

namespace orinsim::serving {

double CloudEndpoint::request_latency_s(std::size_t in_tokens,
                                        std::size_t out_tokens) const {
  const double upload_bits = static_cast<double>(in_tokens) * bytes_per_token * 8.0;
  const double upload_s = upload_bits / (uplink_mbps * 1e6);
  const double prefill_s = static_cast<double>(in_tokens) / prefill_tps;
  const double decode_s = static_cast<double>(out_tokens) / decode_tps;
  return rtt_s + upload_s + provider_queue_s + prefill_s + decode_s;
}

double CloudEndpoint::request_cost_usd(std::size_t in_tokens,
                                       std::size_t out_tokens) const {
  return static_cast<double>(in_tokens + out_tokens) / 1000.0 * usd_per_1k_tokens;
}

std::string offload_policy_name(OffloadPolicy policy) {
  switch (policy) {
    case OffloadPolicy::kEdgeOnly:
      return "edge-only";
    case OffloadPolicy::kCloudOnly:
      return "cloud-only";
    case OffloadPolicy::kQueueDepth:
      return "queue-depth";
    case OffloadPolicy::kLatencyThreshold:
      return "latency-threshold";
  }
  return "?";
}

double HybridResult::mean_latency_s() const {
  return trace::LatencySummary::from(latencies_s).mean_s;
}

double HybridResult::p95_latency_s() const {
  return trace::LatencySummary::from(latencies_s).p95_s;
}

HybridResult simulate_hybrid(InferenceBackend& backend, const HybridConfig& config) {
  const workload::SeqConfig& seq = config.seq;
  const std::size_t max_batch = config.max_batch;
  const std::size_t total = config.arrivals.total_requests;
  ORINSIM_CHECK(total > 0 && max_batch > 0 && config.arrivals.rate_rps > 0,
                "hybrid: degenerate scheduler config");

  const std::vector<double> arrivals = config.arrivals.generate();

  HybridResult result;
  trace::ExecutionTimeline& timeline = result.timeline;
  for (double arrival : arrivals) timeline.begin_request(arrival);

  // Cached edge batch costs by occupancy.
  std::vector<double> latency_by_bs(max_batch + 1, -1.0);
  std::vector<double> energy_by_bs(max_batch + 1, 0.0);
  auto edge_batch = [&](std::size_t bs) {
    if (latency_by_bs[bs] < 0.0) {
      BatchRequest br;
      br.batch = bs;
      br.seq = seq;
      const BatchResult r = backend.execute(br);
      ORINSIM_CHECK(!r.oom, "hybrid: edge batch config OOMs");
      latency_by_bs[bs] = r.latency_s;
      energy_by_bs[bs] = r.energy_j;
    }
    return latency_by_bs[bs];
  };

  std::size_t next = 0;  // next unrouted request index

  // Cloud work overlaps the edge device: the event is pinned at the arrival
  // instant, off the sequential cursor. Power stays unset — the cloud's
  // joules are not the edge board's energy.
  auto route_to_cloud = [&](std::size_t id) {
    const double arrival = arrivals[id];
    const double latency = config.cloud.request_latency_s(seq.input, seq.output);
    timeline.append_at(arrival, trace::Phase::kOffload, latency, 1,
                       static_cast<double>(seq.total));
    timeline.start_request(id, arrival);
    timeline.finish_request(id, arrival + latency);
    result.cloud_cost_usd += config.cloud.request_cost_usd(seq.input, seq.output);
  };

  // Runs the batch [next, next+take) on the edge at `dispatch_at`.
  auto run_on_edge = [&](double dispatch_at, std::size_t take) {
    timeline.stall_until(dispatch_at);
    const double batch_latency = edge_batch(take);
    // Mean power reproduces the backend-reported batch energy exactly
    // (power * duration == energy).
    const double power = batch_latency > 0.0 ? energy_by_bs[take] / batch_latency
                                             : trace::kPowerUnset;
    timeline.emit(trace::Phase::kDecode, batch_latency, take,
                  static_cast<double>(seq.total), power);
    for (std::size_t i = 0; i < take; ++i) {
      timeline.start_request(next + i, dispatch_at);
      timeline.finish_request(next + i, timeline.now());
    }
  };

  while (next < total) {
    const double arrival = arrivals[next];

    if (config.policy == OffloadPolicy::kCloudOnly) {
      route_to_cloud(next);
      ++next;
      continue;
    }

    // Requests waiting when the edge device frees up (or now, if idle).
    const double dispatch_at = std::max(arrival, timeline.now());
    std::size_t waiting = 0;
    while (next + waiting < total &&
           arrivals[next + waiting] <= dispatch_at) {
      ++waiting;
    }
    waiting = std::max<std::size_t>(waiting, 1);

    // Policy decisions before forming the edge batch.
    if (config.policy == OffloadPolicy::kQueueDepth && waiting > config.queue_threshold) {
      // Overflow beyond one full batch goes to the cloud (newest requests).
      std::size_t to_edge = std::min(waiting, max_batch);
      std::size_t overflow = waiting - to_edge;
      for (std::size_t i = 0; i < overflow; ++i) {
        route_to_cloud(next + to_edge + i);
      }
      run_on_edge(dispatch_at, to_edge);
      next += waiting;
      continue;
    }

    const std::size_t take = std::min(waiting, max_batch);
    const double batch_latency = edge_batch(take);

    if (config.policy == OffloadPolicy::kLatencyThreshold) {
      // Route the whole wave to the cloud if the edge would miss the SLO for
      // its oldest member.
      const double predicted = dispatch_at + batch_latency - arrivals[next];
      if (predicted > config.latency_slo_s) {
        for (std::size_t i = 0; i < take; ++i) route_to_cloud(next + i);
        next += take;
        continue;
      }
    }

    run_on_edge(dispatch_at, take);
    next += take;
  }

  // Everything below is read off the event stream.
  result.latencies_s = timeline.request_latencies();
  result.cloud_requests = timeline.count(trace::Phase::kOffload);
  result.edge_requests = result.latencies_s.size() - result.cloud_requests;
  result.edge_energy_j = timeline.total_energy_j();
  result.makespan_s = timeline.makespan_s();
  return result;
}

}  // namespace orinsim::serving
