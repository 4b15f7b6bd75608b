// Per-run helpers behind the one query path. Internal to core/: the lane
// core (core/query_service.cc) plans, rigs, and harvests every query with
// them, whichever entry point issued it; the reference column of the
// determinism tests (tests/fingerprint_matrix.h) reuses them to run a
// protocol directly on a simulator, outside the lane machinery.

#ifndef VALIDITY_CORE_RUN_INTERNAL_H_
#define VALIDITY_CORE_RUN_INTERNAL_H_

#include <memory>

#include "common/status.h"
#include "core/engine.h"
#include "protocols/byzantine.h"
#include "protocols/factory.h"
#include "sim/churn.h"
#include "sim/fault.h"

namespace validity::core::internal {

/// Everything derived from (spec, config, hq) before a query starts.
struct RunPlan {
  double d_hat = 0.0;
  bool failure_detection = false;
  protocols::QueryContext ctx;
  protocols::ProtocolOptions protocol_options;
};

/// `d_hat`, or when it is 0 ("auto") the engine's estimated diameter plus
/// kDefaultDiameterMargin.
double ResolveDHat(const QueryEngine& engine, double d_hat);

/// Validates the query on its own (host range, sketch shape, fault rates,
/// protocol vocabulary) and fills `plan`.
Status PlanRun(const QueryEngine& engine, const QuerySpec& spec,
               const RunConfig& config, HostId hq, RunPlan* plan);

/// Schedules the uniform churn `churn` configures (a RunConfig or a
/// ServiceOptions: both carry churn_removals, churn_seed, and the window
/// churn_{start,end}_frac) onto `simulator`. The window is a fraction of
/// the horizon 2 * d_hat * delta from t=0, and `hq` is never removed.
template <typename ChurnFields>
void ScheduleConfiguredChurn(const QueryEngine& engine,
                             sim::Simulator* simulator,
                             const ChurnFields& churn, double d_hat,
                             HostId hq) {
  if (churn.churn_removals == 0) return;
  SimTime horizon = 2.0 * d_hat * simulator->options().delta;
  Rng churn_rng(churn.churn_seed);
  sim::ScheduleChurn(
      simulator, sim::MakeUniformChurn(
                     engine.topology().num_hosts(), hq, churn.churn_removals,
                     churn.churn_start_frac * horizon,
                     churn.churn_end_frac * horizon, &churn_rng));
}

/// Collects the §6.3 cost report, validity report, and ground truth of a
/// query started at `start_at` once its traffic has quiesced. `metrics` is
/// what the query's traffic was charged to; `start_at` anchors the validity
/// window [start_at, start_at + horizon].
QueryResult HarvestResult(const QueryEngine& engine,
                          const sim::Simulator& simulator,
                          const sim::Metrics& metrics,
                          const protocols::ProtocolBase& protocol,
                          const QuerySpec& spec, const RunConfig& config,
                          double d_hat, HostId hq, SimTime start_at);

/// Per-run byzantine interposition state: the mutator + interposer pair
/// wrapping a protocol's HostProgram when the config asks for byzantine
/// hosts. Owned by the query's lane, destroyed after the simulator stops
/// dispatching to it.
struct ByzantineRig {
  std::unique_ptr<protocols::StandardByzantineMutator> mutator;
  std::unique_ptr<sim::ByzantineInterposer> interposer;
};

/// The program the simulator should dispatch the query's traffic to:
/// `inner` directly, or a byzantine interposer wrapping it. `fault` must
/// outlive the run.
inline sim::HostProgram* MaybeInterpose(protocols::ProtocolKind kind,
                                        const sim::FaultSpec& fault,
                                        protocols::CombinerKind combiner,
                                        const sketch::FmParams& fm,
                                        uint32_t num_hosts,
                                        sim::HostProgram* inner, HostId hq,
                                        ByzantineRig* rig) {
  if (!fault.HasByzantine()) return inner;
  rig->mutator = std::make_unique<protocols::StandardByzantineMutator>(
      kind, fault, combiner, fm, num_hosts);
  rig->interposer = std::make_unique<sim::ByzantineInterposer>(
      &fault, rig->mutator.get(), inner, hq);
  return rig->interposer.get();
}

}  // namespace validity::core::internal

#endif  // VALIDITY_CORE_RUN_INTERNAL_H_
