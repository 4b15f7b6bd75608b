#include "core/run_internal.h"

#include "protocols/oracle.h"

namespace validity::core::internal {

double ResolveDHat(const QueryEngine& engine, double d_hat) {
  return d_hat > 0.0 ? d_hat
                     : static_cast<double>(engine.EstimatedDiameter()) +
                           kDefaultDiameterMargin;
}

Status PlanRun(const QueryEngine& engine, const QuerySpec& spec,
               const RunConfig& config, HostId hq, RunPlan* plan) {
  const uint32_t num_hosts = engine.topology().num_hosts();
  if (hq >= num_hosts) {
    return Status::OutOfRange("querying host out of range");
  }
  if (spec.fm_vectors == 0) {
    return Status::InvalidArgument("fm_vectors must be >= 1");
  }
  if (config.churn_removals >= num_hosts) {
    return Status::InvalidArgument("cannot remove every host");
  }
  if (Status status = config.fault.Validate(); !status.ok()) return status;
  if (config.protocol == protocols::ProtocolKind::kRandomizedReport &&
      spec.aggregate != AggregateKind::kCount &&
      spec.aggregate != AggregateKind::kSum) {
    return Status::InvalidArgument(
        "randomized-report answers count/sum queries only");
  }

  plan->d_hat = ResolveDHat(engine, spec.d_hat);

  // The tree/DAG baselines track child liveness through heartbeats.
  plan->failure_detection =
      config.sim_options.failure_detection ||
      config.protocol == protocols::ProtocolKind::kSpanningTree ||
      config.protocol == protocols::ProtocolKind::kDag;

  plan->ctx.aggregate = spec.aggregate;
  plan->ctx.combiner =
      protocols::CombinerFor(spec.aggregate, spec.exact_combiners);
  plan->ctx.fm.num_vectors = spec.fm_vectors;
  plan->ctx.d_hat = plan->d_hat;
  plan->ctx.sketch_seed = config.sketch_seed;
  plan->ctx.values = &engine.values();

  plan->protocol_options = config.protocol_options;
  if (config.protocol != protocols::ProtocolKind::kRandomizedReport) {
    return Status::Ok();
  }
  protocols::RandomizedReportOptions& randomized =
      plan->protocol_options.randomized;
  if (randomized.p_override == 0.0 && randomized.n_estimate <= 1.0) {
    randomized.n_estimate = static_cast<double>(num_hosts);
  }
  return randomized.Validate();
}

QueryResult HarvestResult(const QueryEngine& engine,
                          const sim::Simulator& simulator,
                          const sim::Metrics& metrics,
                          const protocols::ProtocolBase& protocol,
                          const QuerySpec& spec, const RunConfig& config,
                          double d_hat, HostId hq, SimTime start_at) {
  QueryResult result;
  result.value = protocol.result().value;
  result.declared = protocol.result().declared;
  result.d_hat_used = d_hat;
  result.resident_state_bytes = protocol.ResidentStateBytes();

  result.cost.messages = metrics.messages_sent();
  result.cost.bytes = metrics.bytes_sent();
  result.cost.max_processed = metrics.MaxProcessed();
  result.cost.declared_at = protocol.result().declared_at;
  result.cost.last_update_at = protocol.result().last_update_at;
  result.cost.sends_per_tick = metrics.SendsPerTick();
  result.cost.computation_histogram = metrics.ComputationCostDistribution();

  // The ORACLE and the exact full aggregate read ground truth for the whole
  // network; million-host callers that touch a small disc skip them.
  if (config.compute_validity) {
    SimTime horizon = 2.0 * d_hat * simulator.options().delta;
    protocols::OracleReport oracle = protocols::ComputeOracle(
        simulator, hq, /*t_begin=*/start_at, /*t_end=*/start_at + horizon,
        spec.aggregate, engine.values());
    result.validity.q_low = oracle.q_low;
    result.validity.q_high = oracle.q_high;
    result.validity.hc_size = oracle.hc.size();
    result.validity.hu_size = oracle.hu.size();
    result.validity.within = result.declared && oracle.Contains(result.value);
    result.validity.within_slack =
        result.declared &&
        oracle.ContainsWithin(result.value, kApproxSlackFactor);

    result.exact_full = ExactAggregateOverAll(
        spec.aggregate, engine.values(), engine.topology().num_hosts());
  }
  return result;
}

}  // namespace validity::core::internal
