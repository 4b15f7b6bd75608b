#include "core/engine.h"

#include <algorithm>

#include "common/zipf.h"
#include "core/query_service.h"
#include "topology/algorithms.h"

namespace validity::core {

QueryEngine::QueryEngine(const topology::Graph* graph,
                         std::vector<double> values)
    : QueryEngine(topology::Topology::FromGraph(graph), std::move(values)) {}

QueryEngine::QueryEngine(topology::Topology topology,
                         std::vector<double> values)
    : topo_(topology), values_(std::move(values)) {
  VALIDITY_CHECK(values_.size() >= topo_.num_hosts(),
                 "need one value per host (%zu < %u)", values_.size(),
                 topo_.num_hosts());
}

uint32_t QueryEngine::EstimatedDiameter() const {
  std::call_once(diameter_once_, [this] {
    if (topo_.implicit()) {
      // Regular shapes know their diameter exactly; no sweeps, no O(n).
      cached_diameter_ = topo_.ImplicitDiameter();
    } else {
      Rng rng(0xd1a4e7e5u);
      cached_diameter_ =
          topology::EstimateDiameter(*topo_.graph(), /*sweeps=*/4, &rng);
    }
  });
  return cached_diameter_;
}

StatusOr<QueryResult> QueryEngine::Run(const QuerySpec& spec,
                                       const RunConfig& config,
                                       HostId hq) const {
  sim::SimulatorSession session(topo_, config.sim_options);
  return Run(&session, spec, config, hq);
}

StatusOr<QueryResult> QueryEngine::Run(sim::SimulatorSession* session,
                                       const QuerySpec& spec,
                                       const RunConfig& config,
                                       HostId hq) const {
  StatusOr<std::vector<QueryResult>> results =
      RunConcurrent(session, {ConcurrentQuery{spec, config, hq}});
  if (!results.ok()) return results.status();
  return std::move(results->front());
}

StatusOr<std::vector<QueryResult>> QueryEngine::RunConcurrent(
    sim::SimulatorSession* session,
    const std::vector<ConcurrentQuery>& queries) const {
  VALIDITY_CHECK(session != nullptr);
  if (queries.empty()) return std::vector<QueryResult>();

  // One timeline for the batch, profiled on its first query: every query
  // must agree with it before any of them runs.
  ServiceOptions timeline =
      ServiceOptionsFor(queries[0].spec, queries[0].config, queries[0].hq);
  timeline.max_in_flight = static_cast<uint32_t>(queries.size());
  std::vector<Arrival> arrivals;
  std::vector<internal::RunPlan> plans(queries.size());
  bool failure_detection = false;
  // Event budgets guard a whole timeline, and this timeline carries every
  // query of the batch: take the largest finite budget, but let any
  // query's 0 ("unlimited") win — a finite batch-mate must not abort a
  // query that asked for no limit.
  uint64_t max_events = 0;
  bool unlimited = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    const ConcurrentQuery& q = queries[i];
    arrivals.push_back(Arrival{q.start_at, q.spec, q.config, q.hq});
    if (Status status = QueryService::PlanLane(*this, *session, timeline,
                                               /*now=*/0.0, arrivals[i],
                                               &plans[i]);
        !status.ok()) {
      return status;
    }
    failure_detection = failure_detection || plans[i].failure_detection;
    const uint64_t budget = q.config.sim_options.max_events;
    unlimited = unlimited || budget == 0;
    max_events = std::max(max_events, budget);
  }
  timeline.max_events = unlimited ? 0 : max_events;

  QueryService service(this, session, timeline, failure_detection);
  for (size_t i = 0; i < queries.size(); ++i) {
    service.Admit(arrivals[i], plans[i]);
  }
  service.Drain();
  // A new service numbers its queries 1, 2, ... in submission order.
  std::vector<QueryResult> results(queries.size());
  QueryService::Completion done;
  while (service.Poll(&done)) results[done.id - 1] = std::move(done.result);
  return results;
}

std::vector<double> MakeZipfValues(uint32_t num_hosts, uint64_t seed,
                                   int64_t low, int64_t high, double theta) {
  auto zipf = ZipfGenerator::Make(low, high, theta);
  VALIDITY_CHECK(zipf.ok(), "bad zipf parameters");
  Rng rng(seed);
  std::vector<double> values(num_hosts);
  for (double& v : values) {
    v = static_cast<double>(zipf->Sample(&rng));
  }
  return values;
}

}  // namespace validity::core
