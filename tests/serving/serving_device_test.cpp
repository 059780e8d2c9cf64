// ServingDevice: the engine+backend+governor bundle the fleet router steps.
// Pins of the extraction refactor: a catalog-built device must reproduce the
// hand-assembled SimTokenBackend + ContinuousEngine schedule exactly, and
// heterogeneous catalog entries must yield distinct, roofline-consistent
// step costs from the same request stream. The continuous-batching study
// (token-level admit/retire vs the paper's static batches) runs on the
// default device: the Orin AGX 64GB at MaxN with an unlimited block pool.
#include "serving/serving_device.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/error.h"
#include "serving/engine.h"
#include "sim/device_catalog.h"
#include "workload/arrivals.h"

namespace orinsim::serving {
namespace {

std::vector<Request> poisson_stream(std::size_t count, double rps,
                                    const workload::SeqConfig& seq) {
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_rps = rps;
  arrivals.total_requests = count;
  return requests_from_arrivals(arrivals.generate(), seq);
}

TEST(ServingDeviceTest, ReproducesHandAssembledEngineExactly) {
  // The refactor pin: wrapping backend+engine+governor in ServingDevice must
  // not change a single scheduling decision or charged cost on the paper's
  // reference device.
  const workload::SeqConfig seq = workload::seq_config_default();

  ServingDevice::SimConfig dc;
  dc.max_concurrency = 4;
  dc.governor.power_cap_w = 40.0;
  ServingDevice device(dc);
  const EngineResult a = device.run(poisson_stream(24, 4.0, seq));

  SimTokenBackend::Config bc;
  bc.model_key = "llama3";
  bc.max_concurrency = 4;
  bc.seq = seq;
  SimTokenBackend backend(bc);
  GovernorConfig gov;
  gov.power_cap_w = 40.0;
  const EngineResult b = ContinuousEngine(backend, gov).run(poisson_stream(24, 4.0, seq));

  EXPECT_EQ(a.latencies_s, b.latencies_s);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.governor_step_downs, b.governor_step_downs);
  EXPECT_EQ(a.decode_steps, b.decode_steps);
  EXPECT_EQ(a.mean_active, b.mean_active);
}

TEST(ServingDeviceTest, HeterogeneousCatalogEntriesYieldDistinctStepCosts) {
  // Same model, same stream, different silicon: the Nano's decode steps must
  // be strictly slower than the reference Orin's (bandwidth-bound roofline),
  // stretching its makespan.
  const workload::SeqConfig seq = workload::seq_config_default();
  auto mean_decode_s = [&](const char* key) {
    ServingDevice::SimConfig dc;
    dc.device_key = key;
    dc.model_key = "phi2";
    dc.dtype = DType::kI8;  // fits every catalog device
    dc.max_concurrency = 2;
    ServingDevice device(dc);
    const EngineResult r = device.run(poisson_stream(8, 2.0, seq));
    double decode_s = 0.0;
    std::size_t steps = 0;
    for (const trace::StepEvent& ev : r.timeline.events()) {
      if (ev.phase == trace::Phase::kDecode) {
        decode_s += ev.duration_s;
        ++steps;
      }
    }
    EXPECT_GT(steps, 0u) << key;
    return decode_s / static_cast<double>(steps);
  };
  const double orin = mean_decode_s("orin-agx-64");
  const double xavier = mean_decode_s("xavier-agx-32");
  const double nano = mean_decode_s("orin-nano-8");
  EXPECT_LT(orin, xavier);
  EXPECT_LT(xavier, nano);
}

TEST(ServingDeviceTest, GovernorLadderIsScaledToTheDevice) {
  // A throttled Nano must walk its *own* clock ladder, not Orin-absolute
  // frequencies it cannot reach.
  ServingDevice::SimConfig dc;
  dc.device_key = "orin-nano-8";
  dc.model_key = "phi2";
  dc.dtype = DType::kI8;
  dc.governor.power_cap_w = 5.0;  // low enough to force step-downs
  ServingDevice device(dc);
  const sim::DeviceSpec& nano = sim::device_by_key("orin-nano-8").spec;

  const std::vector<sim::PowerMode>& ladder = device.governor().ladder;
  ASSERT_FALSE(ladder.empty());
  EXPECT_DOUBLE_EQ(ladder.front().gpu_freq_mhz, nano.gpu_max_freq_mhz);
  for (const sim::PowerMode& pm : ladder) {
    EXPECT_LE(pm.gpu_freq_mhz, nano.gpu_max_freq_mhz);
  }

  const workload::SeqConfig seq = workload::seq_config_default();
  const EngineResult r = device.run(poisson_stream(8, 4.0, seq));
  EXPECT_GT(r.governor_step_downs, 0u);
}

TEST(ServingDeviceTest, ConfiguredModeHeadsTheAutoLadder) {
  // Starting at mode "A" must drop the MaxN rung: the descent begins where
  // the device is configured, per the governor's ladder[0] contract.
  ServingDevice::SimConfig dc;
  dc.power_mode = "A";
  dc.governor.power_cap_w = 30.0;
  ServingDevice device(dc);
  const std::vector<sim::PowerMode>& ladder = device.governor().ladder;
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(ladder.front().name, "A");
  for (const sim::PowerMode& pm : ladder) EXPECT_NE(pm.name, "MaxN");
}

TEST(ServingDeviceTest, UnknownDeviceKeyRejected) {
  ServingDevice::SimConfig dc;
  dc.device_key = "h100-sxm";
  EXPECT_THROW(ServingDevice device(dc), ContractViolation);
}

// ---------------------------------------------------------------------------
// Continuous batching on the reference device
// ---------------------------------------------------------------------------

// llama3 FP16, evenly spaced arrivals, up to `cap` sequences decoding together.
EngineResult run_continuous(double rps, std::size_t count, std::size_t cap = 16) {
  ServingDevice::SimConfig dc;
  dc.max_concurrency = cap;
  workload::ArrivalConfig arrivals;
  arrivals.rate_rps = rps;
  arrivals.total_requests = count;
  return ServingDevice(dc).run(requests_from_arrivals(arrivals.generate(), dc.seq));
}

TEST(ContinuousBatchingTest, AllRequestsComplete) {
  const EngineResult r = run_continuous(2.0, 32);
  EXPECT_EQ(r.latencies_s.size(), 32u);
  for (double l : r.latencies_s) EXPECT_GT(l, 0.0);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_GE(r.decode_steps, 64u);  // at least out_tokens steps
}

TEST(ContinuousBatchingTest, Deterministic) {
  const EngineResult a = run_continuous(2.0, 32);
  const EngineResult b = run_continuous(2.0, 32);
  EXPECT_EQ(a.latencies_s, b.latencies_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST(ContinuousBatchingTest, OccupancyBoundedByCap) {
  const EngineResult r = run_continuous(100.0, 32);  // flood
  EXPECT_LE(r.mean_active, 16.0 + 1e-9);
  EXPECT_GT(r.mean_active, 4.0);  // flood keeps the device busy
}

TEST(ContinuousBatchingTest, SingleRequestLatencyNearBsOne) {
  // A lone request should see roughly the bs=1 static latency (prefill +
  // 64 decode steps), with no batching delay.
  const EngineResult r = run_continuous(1.0, 1);
  ASSERT_EQ(r.latencies_s.size(), 1u);
  EXPECT_GT(r.latencies_s[0], 4.0);
  EXPECT_LT(r.latencies_s[0], 9.0);  // paper bs=1: 6.37s minus run overhead
}

TEST(ContinuousBatchingTest, BeatsStaticMeanLatencyUnderLoad) {
  // Same arrival process, same concurrency budget: continuous batching must
  // cut mean time-to-last-token (no waiting for batch formation/stragglers).
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  const workload::SeqConfig seq = workload::seq_config_default();
  workload::ArrivalConfig arrivals;
  arrivals.rate_rps = 5.0;
  arrivals.total_requests = 48;
  const EngineResult stat = StaticBatchPolicy(session, 16, seq)
                                .run(requests_from_arrivals(arrivals.generate(), seq));
  EXPECT_LT(run_continuous(5.0, 48).mean_latency_s(), stat.mean_latency_s());
}

TEST(ContinuousBatchingTest, EnergyScalesWithWork) {
  EXPECT_GT(run_continuous(2.0, 64).energy_j, run_continuous(2.0, 32).energy_j * 1.5);
}

TEST(ContinuousBatchingTest, DegenerateConfigsRejected) {
  EXPECT_THROW(run_continuous(2.0, 0), ContractViolation);      // no requests
  EXPECT_THROW(run_continuous(2.0, 32, 0), ContractViolation);  // no lanes
}

}  // namespace
}  // namespace orinsim::serving
