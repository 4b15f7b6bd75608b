// Service stress: 1,000 query arrivals on a ~10^5-host implicit grid with
// timeline churn and lossy links (ISSUE satellite):
//
//  - admission never exceeds the lane cap (peak_in_flight == max_in_flight),
//  - deferred queries run strictly in arrival order,
//  - every query completes and declares,
//  - no traffic outlives its lane's quiescence bound,
//  - resident simulator bytes stay O(touched): proportional to the queried
//    disc + churn pages, not to the 1,000 arrivals and not to the network.

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "core/query_service.h"
#include "topology/topology.h"

namespace validity::core {
namespace {

constexpr uint32_t kSide = 316;  // 99,856 hosts
constexpr HostId kCenter = (kSide / 2) * kSide + kSide / 2;

ServiceOptions StressOptions() {
  ServiceOptions options;
  options.max_in_flight = 8;
  options.churn_removals = 64;
  options.churn_seed = 17;
  options.churn_d_hat = 6.0;
  options.churn_hq = kCenter;
  options.fault.seed = 3;
  options.fault.drop_rate = 0.05;
  return options;
}

Arrival StressArrival(uint64_t i) {
  Arrival a;
  a.spec.aggregate = AggregateKind::kCount;
  a.spec.d_hat = 6.0;  // disc-bounded: the flood stays near the center
  a.config.protocol = protocols::ProtocolKind::kWildfire;
  a.config.compute_validity = false;  // the oracle is O(network); skip it
  a.config.churn_removals = 64;
  a.config.churn_seed = 17;
  a.config.fault.seed = 3;
  a.config.fault.drop_rate = 0.05;
  a.config.sketch_seed = 1000 + i;
  a.hq = kCenter;
  // A 100-arrival burst at t=0 (12.5x the lane cap), then a steady trickle.
  a.submit_time = i < 100 ? 0.0 : (i - 100) * 0.5;
  return a;
}

/// Runs `n` stress arrivals through a fresh service; returns (service
/// resident bytes after drain) through `resident` and asserts the
/// admission/ordering invariants.
void RunStress(const QueryEngine& engine, uint64_t n, size_t* resident) {
  QueryService service(&engine, StressOptions());
  std::vector<QueryService::QueryId> ids;
  ids.reserve(n);
  uint64_t burst = 0;
  for (uint64_t i = 0; i < n; ++i) {
    Arrival a = StressArrival(i);
    if (a.submit_time == 0.0) ++burst;
    auto id = service.Submit(a.submit_time, a.spec, a.config, a.hq);
    ASSERT_TRUE(id.ok()) << id.status().message();
    ids.push_back(id.value());
  }
  // The t=0 burst: the cap admitted exactly max_in_flight lanes, the rest
  // of the burst deferred.
  EXPECT_EQ(service.in_flight(), 8u);
  EXPECT_EQ(service.deferred(), burst - 8);

  service.Drain();
  EXPECT_EQ(service.completed(), n);
  EXPECT_EQ(service.peak_in_flight(), 8u);
  EXPECT_EQ(service.deferred(), 0u);
  EXPECT_EQ(service.in_flight(), 0u);
  EXPECT_EQ(service.session().simulator().unrouted_events(), 0u);

  std::vector<SimTime> started(n, -1.0);
  QueryService::Completion done;
  uint64_t polled = 0;
  while (service.Poll(&done)) {
    ++polled;
    EXPECT_TRUE(done.result.declared);
    EXPECT_GT(done.result.value, 0.0);
    for (uint64_t i = 0; i < n; ++i) {
      if (ids[i] == done.id) {
        started[i] = done.started_at;
        break;
      }
    }
  }
  EXPECT_EQ(polled, n);
  // Deferred queries were admitted strictly in arrival order.
  for (uint64_t i = 1; i < n; ++i) {
    ASSERT_GE(started[i], 0.0) << "query " << i << " never completed";
    EXPECT_GE(started[i], started[i - 1]) << "admission out of order at " << i;
  }
  *resident = service.session().simulator().ResidentTableBytes();
}

TEST(ServiceStressTest, ThousandArrivalsOnAHundredThousandHostGrid) {
  QueryEngine engine(*topology::Topology::Grid(kSide),
                     std::vector<double>(kSide * kSide, 1.0));

  // Baseline: the same timeline serving only a handful of arrivals. The
  // full run touches the same disc and the same churn pages, so its
  // resident footprint must stay within a small factor of the baseline —
  // O(touched), not O(arrivals) and not O(network).
  size_t baseline_resident = 0;
  RunStress(engine, 10, &baseline_resident);
  ASSERT_GT(baseline_resident, 0u);

  size_t full_resident = 0;
  RunStress(engine, 1000, &full_resident);
  EXPECT_LT(full_resident, baseline_resident * 5 + (512u << 10))
      << "resident tables grew with arrival count: " << full_resident
      << " bytes vs baseline " << baseline_resident;
}

}  // namespace
}  // namespace validity::core
