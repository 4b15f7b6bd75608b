#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/query_service.h"
#include "protocols/oracle.h"
#include "sim/session.h"
#include "sketch/fm_sketch.h"
#include "topology/generators.h"
#include "topology/topology.h"

namespace perfbench {
namespace {

namespace core = validity::core;
namespace protocols = validity::protocols;
namespace sim = validity::sim;
namespace sketch = validity::sketch;
namespace topology = validity::topology;
using validity::AggregateKind;
using validity::HostId;
using validity::Rng;
using validity::SimTime;

// ---------------------------------------------------------------- shapes

/// Queries in paper-churn's list: three cycles of its 36-config mix (see
/// PaperChurnQueries), leaving 11 samples beyond the reported p90. A
/// longer list would leave fewer passes per run, and a time's fastest pass
/// needs many.
constexpr size_t kChurnQueries = 108;
/// The list runs in several passes, at least this many. Every pass does
/// identical simulated work, and a query's (a service step's) time is its
/// fastest pass: on a shared machine interference only ever adds time,
/// and the fastest of several passes spread over the run is far steadier
/// from run to run than their median.
constexpr int kMinPasses = 3;
constexpr uint32_t kFmVectors = 16;
constexpr uint64_t kValuesSeed = 43;
/// Seeds the order each closed-loop pass runs its list in.
constexpr uint64_t kPassOrderSeed = 0x6f72646572ULL;

// paper-churn: Figs. 7/8 on a Gnutella-like overlay.
constexpr uint32_t kChurnHosts = 2000;
constexpr uint64_t kChurnTopologySeed = 7;
constexpr double kChurnQueriesPerSecond = 80.0;

// million-grid: WILDFIRE COUNT on an implicit 10^6-host wireless grid.
constexpr uint32_t kGridSide = 1000;
constexpr double kGridDHat = 10.0;
/// Queries in the grid's list: 11 beyond p90. The grid's working set is
/// far beyond the caches, so interference from other tenants slows its
/// queries most (whole passes up to 1.8x); a shorter list leaves more
/// passes, and each query's fastest pass needs many. Cutting the fastest
/// of 21 passes down to 10 raised query_ms_p90 by 5-14%.
constexpr size_t kGridQueries = 104;
constexpr double kGridQueriesPerSecond = 104.0;
/// ComputeOracle calls per traced run on the grid, outside the passes.
constexpr size_t kGridOracleProbes = 3;

// service-open: Poisson arrivals into a QueryService on a random graph.
constexpr uint32_t kServiceHosts = 2000;
constexpr double kServiceAvgDegree = 5.0;
constexpr uint64_t kServiceTopologySeed = 11;
constexpr uint64_t kServiceFaultSeed = 13;
constexpr uint32_t kServiceLaneCap = 32;
constexpr double kServiceArrivalsPerTick = 1.0;
constexpr SimTime kServiceStepTicks = 1.0;
constexpr double kServiceQueriesPerSecond = 72.0;
/// Arrivals per list: 40 blocks of the lineup (see ServiceArrivals). An
/// arrival's latency adds up whole steps, so arrivals that fall due and
/// are polled in the same steps tie, and 120 arrivals left as few as 9
/// samples beyond p90; 160 leave about 16. Fewer arrivals would leave more
/// passes per run, and a step's fastest pass needs many: going from 11 to
/// 22 passes raised queries_per_s by 10-25%.
constexpr size_t kServiceArrivals = 160;
/// Completions re-run solo (outside the timed passes) per run.
constexpr size_t kServiceSoloSamples = 24;

/// Passes over a list of `queries` for about `seconds` of untraced work at
/// a workload's nominal rate; a traced run, which runs every query twice,
/// makes half as many. The pass count, not the clock, ends the run. At
/// --seconds 30 the nominal rates give paper-churn 23, million-grid 30 and
/// service-open 14 passes; interference stretches the slower passes, so a
/// run takes about 20-25, 45-55 and 45-55 s on a shared 4-vCPU VM.
int Passes(double queries_per_second, const RunOptions& options,
           size_t queries) {
  int passes = static_cast<int>(std::ceil(
      queries_per_second * static_cast<double>(options.seconds) /
      static_cast<double>(queries)));
  if (options.traced) passes /= 2;
  return std::max(kMinPasses, passes);
}

/// The paper's Figs. 7-9 lineup, indexed by a query's `label`.
const std::vector<core::ProtocolSpec>& Lineup() {
  static const std::vector<core::ProtocolSpec> lineup = core::StandardLineup();
  return lineup;
}
size_t WildfireLabel() {
  for (size_t label = 0; label < Lineup().size(); ++label) {
    if (Lineup()[label].kind == protocols::ProtocolKind::kWildfire) {
      return label;
    }
  }
  VALIDITY_CHECK(false, "StandardLineup() has no WILDFIRE entry");
  return 0;
}

const AggregateKind kAggregates[] = {AggregateKind::kCount,
                                     AggregateKind::kSum};

struct Query {
  size_t label = 0;
  core::QuerySpec spec;
  core::RunConfig config;
  HostId hq = 0;
  /// Simulated arrival time (service-open only).
  SimTime at = 0.0;
};

Query MakeQuery(size_t label, AggregateKind aggregate, HostId hq) {
  Query q;
  q.label = label;
  q.spec.aggregate = aggregate;
  q.spec.fm_vectors = kFmVectors;
  q.config.protocol = Lineup()[label].kind;
  q.config.protocol_options = Lineup()[label].options;
  q.hq = hq;
  return q;
}

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBelow(i)]);
  }
}

/// The ORACLE for `hq` over the window a query started at `start` used.
protocols::OracleReport OracleFor(const core::QueryEngine& engine,
                                  const sim::Simulator& simulator,
                                  const Query& q, double d_hat_used,
                                  SimTime start) {
  return protocols::ComputeOracle(
      simulator, q.hq, start,
      start + 2.0 * d_hat_used * simulator.options().delta, q.spec.aggregate,
      engine.values());
}

// ---------------------------------------------------------------- set-up

/// Spans of one set-up, in ms, and its total in s.
struct SetupTimes {
  double topology_ms = 0.0;
  double values_ms = 0.0;
  double diameter_ms = 0.0;
  double session_ms = 0.0;
  double warmup_ms = 0.0;
  double total_s = 0.0;
};

/// Everything a workload builds before its first timed query. Members are
/// destroyed in reverse order: service/session, engine, graph.
struct Fixture {
  std::unique_ptr<topology::Graph> graph;
  std::unique_ptr<core::QueryEngine> engine;
  std::unique_ptr<sim::SimulatorSession> session;
  std::unique_ptr<core::QueryService> service;
};

/// Times a workload's set-up once before every pass, so that the set-ups
/// are spread over the whole run as the passes are; like a pass, a set-up
/// is reported at its fastest. The first set-up builds the fixture every
/// pass runs on; the later ones build a fixture that is torn down at once,
/// so that the passes keep running on warm state.
class SetUps {
 public:
  using Build = std::function<std::unique_ptr<Fixture>(SetupTimes*)>;
  explicit SetUps(Build build) : build_(std::move(build)) {}

  /// Sets up before pass `pass`; returns the fixture of the passes.
  Fixture* BeforePass(int pass) {
    SetupTimes t;
    std::unique_ptr<Fixture> fixture = build_(&t);
    runs_.push_back(t);
    if (pass == 0) fixture_ = std::move(fixture);
    return fixture_.get();
  }

  void AddMetrics(Report* report) const {
    auto fastest = [this](double SetupTimes::*field) {
      double best = runs_.front().*field;
      for (const SetupTimes& t : runs_) best = std::min(best, t.*field);
      return best;
    };
    report->Add("setup_s", fastest(&SetupTimes::total_s), "s");
    report->Add("topology.build_ms", fastest(&SetupTimes::topology_ms), "ms");
    report->Add("common.values_ms", fastest(&SetupTimes::values_ms), "ms");
    report->Add("topology.diameter_ms", fastest(&SetupTimes::diameter_ms),
                "ms");
    report->Add("sim.session_build_ms", fastest(&SetupTimes::session_ms),
                "ms");
    report->Add("core.warmup_ms", fastest(&SetupTimes::warmup_ms), "ms");
  }

 private:
  Build build_;
  std::vector<SetupTimes> runs_;
  std::unique_ptr<Fixture> fixture_;
};

/// Times consecutive set-up steps as spans into a SetupTimes.
struct Clocked {
  SetupTimes* times;
  Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  void Lap(double SetupTimes::*field) {
    Clock::time_point now = Clock::now();
    times->*field = MsBetween(last, now);
    last = now;
  }
  void Finish() { times->total_s = SecondsBetween(start, Clock::now()); }
};

std::vector<double> Values(uint32_t hosts) {
  return core::MakeZipfValues(hosts, kValuesSeed);
}

// ------------------------------------------------------------- reporting

/// Per-label tallies reported as protocols.<label>.*.
struct LabelStats {
  std::vector<double> query_ms;
  std::vector<double> events;
  uint64_t validity_checked = 0;
  uint64_t validity_slack = 0;
};

void AddLabelMetrics(const std::vector<LabelStats>& labels, Report* report) {
  for (size_t l = 0; l < labels.size(); ++l) {
    const std::string prefix = "protocols." + Lineup()[l].label;
    const LabelStats& s = labels[l];
    if (!s.query_ms.empty()) {
      report->Add(prefix + ".query_ms_p50", Percentile(s.query_ms, 50), "ms");
    }
    report->Add(prefix + ".events_per_query", Mean(s.events), "count");
    report->Add(prefix + ".valid_slack_frac",
                s.validity_checked == 0
                    ? 0.0
                    : static_cast<double>(s.validity_slack) /
                          static_cast<double>(s.validity_checked),
                "frac");
  }
}

/// The end-to-end figures from per-query latencies and the host time the
/// timed work took.
void AddLatencyMetrics(const std::vector<double>& latency_ms, double busy_s,
                       double events, Report* report, std::string* error) {
  double p90 = Percentile(latency_ms, 90);
  if (CountAbove(latency_ms, p90) < 10) {
    *error = "fewer than 10 samples beyond query_ms_p90";
  }
  report->Add("queries_per_s",
              static_cast<double>(latency_ms.size()) / busy_s, "1/s");
  report->Add("query_ms_p50", Percentile(latency_ms, 50), "ms");
  report->Add("query_ms_p90", p90, "ms");
  report->Add("events_per_s", events / busy_s, "1/s");
}

void AddFailures(const std::vector<std::string>& why, Report* report) {
  report->attempted = why.size();
  for (const std::string& w : why) {
    if (!w.empty()) report->Fail(w);
  }
  report->Add("failed_frac",
              static_cast<double>(report->failed) /
                  static_cast<double>(report->attempted),
              "frac");
}

/// Records the first reason a query failed.
void Flag(std::vector<std::string>* why, size_t i, std::string reason) {
  if ((*why)[i].empty()) (*why)[i] = std::move(reason);
}

// ----------------------------------------------------------- closed loop

/// How a closed-loop workload meets the ORACLE.
enum class OracleUse {
  /// Every query runs with compute_validity on; the traced pass calls
  /// ComputeOracle from outside and must reproduce the bounds.
  kEveryQuery,
  /// Queries run with validity off; a traced run prices the oracle from
  /// outside on a few re-runs after the passes.
  kProbes,
};

/// One caller, `passes` passes over the list, each after a set-up. In each
/// pass every query runs untraced (the end-to-end figures: the Run call
/// alone) and, in a traced run, then again traced: an explicit Reset, Run
/// with validity off and the ORACLE called from outside, each its own span.
/// The two run back to back so that both see the same machine. Every pass
/// must reproduce pass 0's digest, and the traced run the untraced one's.
///
/// Each pass runs the list in an order of its own. Interference comes in
/// stretches of seconds, and in list order a stretch that covered the same
/// part of the few quiet passes left those queries without a quiet run:
/// the slowest tenth of the fastest times was then mostly such queries, and
/// query_ms_p90 read the interference, not the program. Shuffled, every
/// query's passes fall at independent instants of the run.
void RunClosedLoop(SetUps* setups, const std::vector<Query>& queries,
                   int passes, bool traced, OracleUse oracle_use,
                   Report* report, std::string* error) {
  const size_t n = queries.size();
  std::vector<std::string> why(n);
  std::vector<uint64_t> digest(n, 0);
  std::vector<LabelStats> labels(Lineup().size());
  const Rows blank(passes, std::vector<double>(n, 0.0));
  Rows latency = blank, reset = blank, run = blank, oracle = blank,
       spans = blank;
  std::vector<double> events(n, 0.0), ticks(n, 0.0), messages(n, 0.0);
  size_t resident_state = 0, resident_table = 0;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  Rng order_rng(kPassOrderSeed);
  Fixture* f = nullptr;
  for (int pass = 0; pass < passes; ++pass) {
    f = setups->BeforePass(pass);
    const core::QueryEngine& engine = *f->engine;
    sim::SimulatorSession& session = *f->session;
    const sim::Simulator& simulator = session.simulator();
    Shuffle(&order, &order_rng);
    for (size_t i : order) {
      const Query& q = queries[i];
      Clock::time_point u0 = Clock::now();
      auto result = engine.Run(&session, q.spec, q.config, q.hq);
      latency[pass][i] = MsBetween(u0, Clock::now());
      if (!result.ok()) {
        Flag(&why, i, "status: " + result.status().message());
        continue;
      }
      uint64_t d = QueryDigest(*result, result->validity.q_low,
                               result->validity.q_high);
      if (pass == 0) {
        digest[i] = d;
        events[i] = static_cast<double>(simulator.events_executed());
        ticks[i] = simulator.Now();
        messages[i] = static_cast<double>(result->cost.messages);
        if (!result->declared) Flag(&why, i, "undeclared");
        if (q.config.compute_validity) {
          ++labels[q.label].validity_checked;
          if (result->validity.within_slack) ++labels[q.label].validity_slack;
        }
      } else if (d != digest[i]) {
        Flag(&why, i, "pass digest differs (query " + std::to_string(i) + ")");
      }
      if (!traced) continue;

      core::RunConfig config = q.config;
      config.compute_validity = false;
      Clock::time_point t0 = Clock::now();
      session.Reset();
      Clock::time_point t1 = Clock::now();
      auto again = engine.Run(&session, q.spec, config, q.hq);
      Clock::time_point t2 = Clock::now();
      protocols::OracleReport bounds;
      if (again.ok() && oracle_use == OracleUse::kEveryQuery) {
        bounds = OracleFor(engine, simulator, q, again->d_hat_used, 0.0);
      }
      Clock::time_point t3 = Clock::now();
      reset[pass][i] = MsBetween(t0, t1);
      run[pass][i] = MsBetween(t1, t2);
      oracle[pass][i] = MsBetween(t2, t3);
      spans[pass][i] = MsBetween(t0, t3);
      if (!again.ok()) {
        Flag(&why, i, "traced status: " + again.status().message());
      } else if (QueryDigest(*again, bounds.q_low, bounds.q_high) !=
                 digest[i]) {
        Flag(&why, i, "traced digest differs (query " + std::to_string(i) +
                          ")");
      } else if (pass == 0) {
        resident_table =
            std::max(resident_table, simulator.ResidentTableBytes());
        resident_state = std::max(resident_state, again->resident_state_bytes);
      }
    }
  }
  const std::vector<double> latency_ms = FastestAcross(latency);
  AddLatencyMetrics(latency_ms, Sum(latency_ms) / 1e3, Sum(events), report,
                    error);
  report->result_digest = Fold(digest);
  AddFailures(why, report);
  setups->AddMetrics(report);
  if (!traced) return;

  const core::QueryEngine& engine = *f->engine;
  sim::SimulatorSession& session = *f->session;
  const sim::Simulator& simulator = session.simulator();
  std::vector<double> oracle_ms;
  if (oracle_use == OracleUse::kEveryQuery) {
    oracle_ms = FastestAcross(oracle);
  } else {
    for (size_t p = 0; p < kGridOracleProbes; ++p) {
      const Query& q = queries[(2 * p + 1) * n / (2 * kGridOracleProbes)];
      auto result = engine.Run(&session, q.spec, q.config, q.hq);
      if (!result.ok()) continue;
      Clock::time_point t0 = Clock::now();
      protocols::OracleReport bounds =
          OracleFor(engine, simulator, q, result->d_hat_used, 0.0);
      oracle_ms.push_back(MsBetween(t0, Clock::now()));
      ++labels[q.label].validity_checked;
      if (result->declared &&
          bounds.ContainsWithin(result->value, core::kApproxSlackFactor)) {
        ++labels[q.label].validity_slack;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    labels[queries[i].label].query_ms.push_back(latency_ms[i]);
    labels[queries[i].label].events.push_back(events[i]);
  }
  const std::vector<double> run_ms = FastestAcross(run);
  const std::vector<double> span_ms = FastestAcross(spans);
  const double run_s = Sum(run_ms) / 1e3;
  report->Add("sim.session.reset_ms_p50", Percentile(FastestAcross(reset), 50),
              "ms");
  report->Add("core.run_ms_p50", Percentile(run_ms, 50), "ms");
  report->Add("protocols.oracle_ms_p50", Percentile(oracle_ms, 50), "ms");
  report->Add("sim.events_per_query", Mean(events), "count");
  report->Add("sim.messages_per_query", Mean(messages), "count");
  report->Add("sim.ns_per_event", run_s * 1e9 / Sum(events), "ns");
  report->Add("sim.ticks_per_s", Sum(ticks) / run_s, "1/s");
  AddLabelMetrics(labels, report);
  report->Add("protocols.resident_state_mb",
              static_cast<double>(resident_state) / 1e6, "MB");
  report->Add("sim.resident_table_mb",
              static_cast<double>(resident_table) / 1e6, "MB");
  // Placeholders, not measurements: a closed loop is a one-lane service by
  // construction (one query in flight, never deferred, admitted when
  // issued), so no change to the code can move these four here. Only
  // service-open measures them; lifetime_ticks_p50 is measured on both.
  report->Add("core.service.lanes_mean", 1.0, "count");
  report->Add("core.service.peak_in_flight", 1.0, "count");
  report->Add("core.service.deferred_max", 0.0, "count");
  report->Add("core.service.admission_wait_ticks_p90", 0.0, "ticks");
  report->Add("core.service.lifetime_ticks_p50", Percentile(ticks, 50),
              "ticks");
  report->Add("trace.overhead_frac", 1.0 - Sum(latency_ms) / Sum(span_ms),
              "frac");
  report->Add("trace.unexplained_ms",
              Percentile(latency_ms, 50) - Percentile(span_ms, 50), "ms");
}

// ------------------------------------------------------------ paper-churn

std::unique_ptr<Fixture> BuildPaperChurn(SetupTimes* times) {
  auto f = std::make_unique<Fixture>();
  Clocked clock{times};
  f->graph = std::make_unique<topology::Graph>(
      topology::MakeGnutellaLike(kChurnHosts, kChurnTopologySeed).value());
  clock.Lap(&SetupTimes::topology_ms);
  f->engine = std::make_unique<core::QueryEngine>(f->graph.get(),
                                                  Values(kChurnHosts));
  clock.Lap(&SetupTimes::values_ms);
  f->engine->EstimatedDiameter();
  clock.Lap(&SetupTimes::diameter_ms);
  f->session = std::make_unique<sim::SimulatorSession>(f->graph.get(),
                                                       sim::SimOptions{});
  clock.Lap(&SetupTimes::session_ms);
  for (size_t label = 0; label < Lineup().size(); ++label) {
    for (AggregateKind aggregate : kAggregates) {
      Query q = MakeQuery(label, aggregate, /*hq=*/0);
      auto warm = f->engine->Run(f->session.get(), q.spec, q.config, q.hq);
      VALIDITY_CHECK(warm.ok(), "paper-churn warm-up failed: %s",
                     warm.status().message().c_str());
    }
  }
  clock.Lap(&SetupTimes::warmup_ms);
  clock.Finish();
  return f;
}

std::vector<Query> PaperChurnQueries(uint64_t seed) {
  const uint32_t removals[] = {0, kChurnHosts / 40, kChurnHosts / 10};
  // COUNT twice for every SUM. The fastest times fall in four clusters:
  // ST (about 1 ms), DAG COUNT (1.4-2.8 ms), DAG SUM (4-7 ms) and WILDFIRE
  // (11-24 ms). With COUNT and SUM equally often, ST and DAG COUNT were
  // exactly half the list, so query_ms_p50 fell on the gap between two
  // clusters, and a single query that crossed it (a DAG SUM under churn
  // that ended in 0.1 ms) moved p50 by a third. At two to one the median
  // lies three quarters of the way into the DAG COUNT cluster, and p90
  // inside WILDFIRE.
  const AggregateKind aggregates[] = {AggregateKind::kCount,
                                      AggregateKind::kCount,
                                      AggregateKind::kSum};
  std::vector<Query> configs;
  for (uint32_t r : removals) {
    for (size_t label = 0; label < Lineup().size(); ++label) {
      for (AggregateKind aggregate : aggregates) {
        Query q = MakeQuery(label, aggregate, 0);
        q.config.churn_removals = r;
        configs.push_back(q);
      }
    }
  }
  // Every entry of the mix appears equally often; the seed orders them and
  // draws the querying hosts and the churn and sketch seeds.
  std::vector<Query> queries;
  for (size_t i = 0; i < kChurnQueries; ++i) {
    queries.push_back(configs[i % configs.size()]);
  }
  Rng rng(validity::Mix64(seed ^ 0x7061706572ULL));
  Shuffle(&queries, &rng);
  for (Query& q : queries) {
    q.hq = static_cast<HostId>(rng.NextBelow(kChurnHosts));
    q.config.churn_seed = rng.Next();
    q.config.sketch_seed = rng.Next();
  }
  return queries;
}

// ----------------------------------------------------------- million-grid

Query GridQuery(HostId hq) {
  Query q = MakeQuery(WildfireLabel(), AggregateKind::kCount, hq);
  q.spec.d_hat = kGridDHat;
  q.config.sim_options.medium = sim::MediumKind::kWireless;
  q.config.compute_validity = false;
  return q;
}

std::unique_ptr<Fixture> BuildMillionGrid(SetupTimes* times) {
  auto f = std::make_unique<Fixture>();
  Clocked clock{times};
  topology::Topology grid = topology::Topology::Grid(kGridSide).value();
  clock.Lap(&SetupTimes::topology_ms);
  f->engine = std::make_unique<core::QueryEngine>(
      grid, Values(kGridSide * kGridSide));
  clock.Lap(&SetupTimes::values_ms);
  f->engine->EstimatedDiameter();
  clock.Lap(&SetupTimes::diameter_ms);
  Query warm = GridQuery((kGridSide / 2) * kGridSide + kGridSide / 2);
  f->session = std::make_unique<sim::SimulatorSession>(
      f->engine->topology(), warm.config.sim_options);
  clock.Lap(&SetupTimes::session_ms);
  auto result =
      f->engine->Run(f->session.get(), warm.spec, warm.config, warm.hq);
  VALIDITY_CHECK(result.ok(), "million-grid warm-up failed: %s",
                 result.status().message().c_str());
  clock.Lap(&SetupTimes::warmup_ms);
  clock.Finish();
  return f;
}

std::vector<Query> MillionGridQueries(uint64_t seed) {
  // hq across the interior: the broadcast disc (2 * D-hat hops) never
  // reaches the grid's edge, so every query does the same amount of work.
  const uint32_t margin = static_cast<uint32_t>(2 * kGridDHat);
  Rng rng(validity::Mix64(seed ^ 0x67726964ULL));
  std::vector<Query> queries;
  for (size_t i = 0; i < kGridQueries; ++i) {
    uint32_t row = margin + static_cast<uint32_t>(
                                rng.NextBelow(kGridSide - 2 * margin));
    uint32_t col = margin + static_cast<uint32_t>(
                                rng.NextBelow(kGridSide - 2 * margin));
    Query q = GridQuery(row * kGridSide + col);
    q.config.sketch_seed = rng.Next();
    queries.push_back(q);
  }
  return queries;
}

// ----------------------------------------------------------- service-open

/// The fault plane is fixed, like the topology: its seed decides the
/// warm-up's work too, and set-up must not depend on --seed.
sim::FaultSpec ServiceFaults() {
  sim::FaultSpec fault;
  fault.seed = kServiceFaultSeed;
  fault.drop_rate = 0.02;
  fault.duplicate_rate = 0.02;
  fault.delay_rate = 0.05;
  fault.max_delay_hops = 2;
  return fault;
}

core::ServiceOptions ServiceOptionsWith(const sim::FaultSpec& fault) {
  core::ServiceOptions options;
  options.max_in_flight = kServiceLaneCap;
  options.fault = fault;
  return options;
}

Query ServiceQuery(size_t label, AggregateKind aggregate, HostId hq,
                   const sim::FaultSpec& fault) {
  Query q = MakeQuery(label, aggregate, hq);
  q.config.fault = fault;
  q.config.compute_validity = false;
  return q;
}

std::unique_ptr<Fixture> BuildServiceOpen(const sim::FaultSpec& fault,
                                          SetupTimes* times) {
  auto f = std::make_unique<Fixture>();
  Clocked clock{times};
  f->graph = std::make_unique<topology::Graph>(
      topology::MakeRandom(kServiceHosts, kServiceAvgDegree,
                           kServiceTopologySeed)
          .value());
  clock.Lap(&SetupTimes::topology_ms);
  f->engine = std::make_unique<core::QueryEngine>(f->graph.get(),
                                                  Values(kServiceHosts));
  clock.Lap(&SetupTimes::values_ms);
  f->engine->EstimatedDiameter();
  clock.Lap(&SetupTimes::diameter_ms);
  f->service = std::make_unique<core::QueryService>(f->engine.get(),
                                                    ServiceOptionsWith(fault));
  clock.Lap(&SetupTimes::session_ms);
  for (size_t label = 0; label < Lineup().size(); ++label) {
    for (AggregateKind aggregate : kAggregates) {
      Query q = ServiceQuery(label, aggregate, /*hq=*/0, fault);
      auto id = f->service->Submit(0.0, q.spec, q.config, q.hq);
      VALIDITY_CHECK(id.ok(), "service-open warm-up failed: %s",
                     id.status().message().c_str());
    }
  }
  f->service->Drain();
  core::QueryService::Completion done;
  while (f->service->Poll(&done)) {
  }
  f->service->Reset();
  clock.Lap(&SetupTimes::warmup_ms);
  clock.Finish();
  return f;
}

/// Poisson arrivals at kServiceArrivalsPerTick, conditioned on the load:
/// the timeline is cut into blocks of one arrival per lineup protocol, all
/// with the same aggregate (COUNT and SUM alternate by block), and each
/// block's arrivals fall at uniform random instants within it, in a random
/// order. A Poisson process conditioned on its count in a window is exactly
/// that, so arrivals stay Poisson within a block, but every seed offers the
/// same load in every block. With plain Poisson arrivals the seed decided
/// the bursts, and the bursts the latency tail: query_ms_p90 differed by
/// 40% between seeds while three repeats of one seed agreed within 4%.
/// Blocks of the whole 8-config mix still let a seed cluster up to four
/// WILDFIRE floods, and moved p90 by 15% on such seeds.
std::vector<Query> ServiceArrivals(uint64_t seed,
                                   const sim::FaultSpec& fault) {
  std::vector<size_t> labels;
  for (size_t label = 0; label < Lineup().size(); ++label) {
    labels.push_back(label);
  }
  const SimTime block_ticks =
      static_cast<double>(labels.size()) / kServiceArrivalsPerTick;
  Rng rng(validity::Mix64(seed ^ 0x6f70656eULL));
  std::vector<Query> arrivals;
  for (size_t block = 0; arrivals.size() < kServiceArrivals; ++block) {
    const AggregateKind aggregate = kAggregates[block % 2];
    Shuffle(&labels, &rng);
    std::vector<SimTime> at;
    for (size_t i = 0; i < labels.size(); ++i) {
      at.push_back((static_cast<double>(block) + rng.NextDouble()) *
                   block_ticks);
    }
    std::sort(at.begin(), at.end());
    for (size_t i = 0; i < labels.size(); ++i) {
      Query q = ServiceQuery(labels[i], aggregate,
                             static_cast<HostId>(rng.NextBelow(kServiceHosts)),
                             fault);
      q.config.sketch_seed = rng.Next();
      q.at = at[i];
      arrivals.push_back(q);
    }
  }
  return arrivals;
}

/// What the checks and counters need from one completion (the full
/// QueryResult would make the benchmark's own memory show in peak_rss_mb).
struct Done {
  uint64_t digest = 0;
  bool declared = false;
  SimTime submitted_at = 0.0;
  SimTime started_at = 0.0;
  SimTime retired_at = 0.0;
  double messages = 0.0;
  size_t resident_state_bytes = 0;
};

/// One pass of the arrival list through the service, stepping the
/// timeline kServiceStepTicks at a time. Every pass replays the identical
/// timeline, so step k does the same simulated work in every pass and an
/// arrival falls due and is polled in the same steps.
struct ServicePass {
  /// Host time of each step: its submits, its RunUntil and its polls.
  std::vector<double> step_ms;
  /// Per arrival: the step in which the timeline reached it, and the step
  /// whose poll returned its completion.
  std::vector<size_t> due_step, done_step;
  std::vector<std::optional<Done>> completions;
  std::vector<std::string> submit_errors;
  uint64_t events = 0;
  SimTime ticks = 0.0;
  // Traced passes only: per-call spans, their total per step, and lane
  // occupancy after each step.
  std::vector<double> submit_us, run_ms, poll_us, span_ms, lanes;
  size_t deferred_max = 0;
};

ServicePass DriveService(core::QueryService* service,
                         const std::vector<Query>& arrivals, bool traced) {
  const size_t n = arrivals.size();
  ServicePass pass;
  pass.due_step.assign(n, 0);
  pass.done_step.assign(n, 0);
  pass.submit_us.assign(n, 0.0);
  pass.completions.resize(n);
  pass.submit_errors.resize(n);
  std::vector<std::pair<core::QueryService::QueryId, size_t>> ids;
  const size_t max_steps =
      static_cast<size_t>(arrivals.back().at / kServiceStepTicks) + 100000;
  size_t next = 0, finished = 0, step = 0;
  core::QueryService::Completion done;
  while (finished < n && step < max_steps) {
    const Clock::time_point step_start = Clock::now();
    double spans_ms = 0.0;
    const SimTime until = static_cast<double>(step + 1) * kServiceStepTicks;
    for (; next < n && arrivals[next].at < until; ++next) {
      const Query& q = arrivals[next];
      Clock::time_point s0 = traced ? Clock::now() : step_start;
      auto id = service->Submit(q.at, q.spec, q.config, q.hq);
      if (traced) {
        pass.submit_us[next] = MsBetween(s0, Clock::now()) * 1e3;
        spans_ms += pass.submit_us[next] / 1e3;
        pass.deferred_max = std::max(pass.deferred_max, service->deferred());
      }
      pass.due_step[next] = step;
      if (id.ok()) {
        ids.push_back({*id, next});
      } else {
        pass.submit_errors[next] = id.status().message();
        ++finished;
      }
    }
    Clock::time_point r0 = traced ? Clock::now() : step_start;
    service->RunUntil(until);
    if (traced) {
      pass.run_ms.push_back(MsBetween(r0, Clock::now()));
      spans_ms += pass.run_ms.back();
      pass.lanes.push_back(service->in_flight());
      pass.deferred_max = std::max(pass.deferred_max, service->deferred());
    }
    Clock::time_point p1;
    while (true) {
      Clock::time_point p0 = traced ? Clock::now() : step_start;
      bool got = service->Poll(&done);
      p1 = Clock::now();
      if (!got) break;
      if (traced) {
        pass.poll_us.push_back(MsBetween(p0, p1) * 1e3);
        spans_ms += pass.poll_us.back() / 1e3;
      }
      // Ids are issued in submission order, so a binary search finds the
      // arrival.
      auto it = std::lower_bound(
          ids.begin(), ids.end(), done.id,
          [](const auto& entry, uint64_t id) { return entry.first < id; });
      if (it == ids.end() || it->first != done.id) continue;
      pass.done_step[it->second] = step;
      pass.completions[it->second] = Done{
          QueryDigest(done.result, 0.0, 0.0), done.result.declared,
          done.submitted_at, done.started_at, done.retired_at,
          static_cast<double>(done.result.cost.messages),
          done.result.resident_state_bytes};
      ++finished;
    }
    pass.step_ms.push_back(MsBetween(step_start, p1));
    if (traced) pass.span_ms.push_back(spans_ms);
    ++step;
  }
  pass.events = service->session().simulator().events_executed();
  pass.ticks = static_cast<double>(step) * kServiceStepTicks;
  return pass;
}

/// Each item's fastest pass of one per-step or per-arrival series.
std::vector<double> Fastest(const std::vector<ServicePass>& passes,
                            std::vector<double> ServicePass::*series) {
  Rows rows;
  for (const ServicePass& p : passes) rows.push_back(p.*series);
  return FastestAcross(rows);
}

void RunServiceOpen(const RunOptions& options, Report* report,
                    std::string* error) {
  const sim::FaultSpec fault = ServiceFaults();
  SetUps setups(
      [&fault](SetupTimes* t) { return BuildServiceOpen(fault, t); });
  const std::vector<Query> arrivals = ServiceArrivals(options.seed, fault);
  const size_t n = arrivals.size();

  // Each pass replays the identical timeline from a Reset. In a traced
  // run, untraced and traced passes alternate so that both see the same
  // machine.
  std::vector<ServicePass> untraced, traced;
  const int passes =
      Passes(kServiceQueriesPerSecond, options, kServiceArrivals);
  Fixture* f = nullptr;
  for (int pass = 0; pass < passes; ++pass) {
    f = setups.BeforePass(pass);
    if (pass > 0) f->service->Reset();
    untraced.push_back(DriveService(f->service.get(), arrivals,
                                    /*traced=*/false));
    if (!options.traced) continue;
    f->service->Reset();
    traced.push_back(DriveService(f->service.get(), arrivals,
                                  /*traced=*/true));
  }
  setups.AddMetrics(report);
  core::QueryService& service = *f->service;

  std::vector<std::string> why(n);
  std::vector<uint64_t> digest(n, 0);
  std::vector<LabelStats> labels(Lineup().size());
  // An arrival's latency is the host time of the steps from the one that
  // reached it to the one whose poll returned it, each step at its fastest
  // pass: it counts the wait its admission imposed, and the steps it shared
  // with every other lane in flight.
  const ServicePass& base = untraced.front();
  auto over_steps = [&base](const std::vector<double>& per_step, size_t i) {
    double ms = 0.0;
    for (size_t k = base.due_step[i]; k <= base.done_step[i]; ++k) {
      ms += per_step[k];
    }
    return ms;
  };
  const std::vector<double> step_ms = Fastest(untraced, &ServicePass::step_ms);
  std::vector<double> latency_ms, wait_ticks, lifetime_ticks, messages;
  size_t resident_state = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& done = base.completions[i];
    if (!base.submit_errors[i].empty()) {
      Flag(&why, i, "submit: " + base.submit_errors[i]);
      continue;
    }
    if (!done) {
      Flag(&why, i, "never completed");
      continue;
    }
    latency_ms.push_back(over_steps(step_ms, i));
    labels[arrivals[i].label].query_ms.push_back(latency_ms.back());
    wait_ticks.push_back(done->started_at - done->submitted_at);
    lifetime_ticks.push_back(done->retired_at - done->submitted_at);
    messages.push_back(done->messages);
    resident_state = std::max(resident_state, done->resident_state_bytes);
    if (!done->declared) Flag(&why, i, "undeclared");
    digest[i] = done->digest;
    for (const auto* group : {&untraced, &traced}) {
      for (const ServicePass& p : *group) {
        const auto& again = p.completions[i];
        if (!again || again->digest != digest[i]) {
          Flag(&why, i,
               std::string(group == &traced ? "traced" : "repeated") +
                   " pass differs (arrival " + std::to_string(i) + ")");
        }
      }
    }
  }
  AddLatencyMetrics(latency_ms, Sum(step_ms) / 1e3,
                    static_cast<double>(base.events), report, error);
  report->result_digest = Fold(digest);

  // Solo re-runs of a deterministic sample of completions, outside the
  // timed passes: each must equal a single-query RunConcurrent issued at
  // the instant the service admitted it.
  sim::SimulatorSession solo(f->graph.get(), sim::SimOptions{});
  const size_t stride = n / kServiceSoloSamples;
  std::vector<double> reset_ms, solo_run_ms, oracle_ms;
  for (size_t i = options.seed % stride; i < n; i += stride) {
    const auto& done = base.completions[i];
    if (!done) continue;
    const Query& q = arrivals[i];
    core::QueryEngine::ConcurrentQuery one;
    one.spec = q.spec;
    one.config = q.config;
    one.hq = q.hq;
    one.start_at = done->started_at;
    Clock::time_point t0 = Clock::now();
    solo.Reset();
    Clock::time_point t1 = Clock::now();
    auto result = f->engine->RunConcurrent(&solo, {one});
    Clock::time_point t2 = Clock::now();
    if (!result.ok()) {
      Flag(&why, i, "solo status: " + result.status().message());
      continue;
    }
    const core::QueryResult& r = (*result)[0];
    protocols::OracleReport bounds = OracleFor(
        *f->engine, solo.simulator(), q, r.d_hat_used, one.start_at);
    Clock::time_point t3 = Clock::now();
    reset_ms.push_back(MsBetween(t0, t1));
    solo_run_ms.push_back(MsBetween(t1, t2));
    oracle_ms.push_back(MsBetween(t2, t3));
    labels[q.label].events.push_back(
        static_cast<double>(solo.simulator().events_executed()));
    ++labels[q.label].validity_checked;
    if (r.declared &&
        bounds.ContainsWithin(r.value, core::kApproxSlackFactor)) {
      ++labels[q.label].validity_slack;
    }
    if (QueryDigest(r, 0.0, 0.0) != digest[i]) {
      Flag(&why, i, "service completion differs from solo run (arrival " +
                        std::to_string(i) + ")");
    }
  }
  AddFailures(why, report);
  if (!options.traced) return;

  const std::vector<double> run_ms = Fastest(traced, &ServicePass::run_ms);
  const double run_s = Sum(run_ms) / 1e3;
  const ServicePass& first = traced.front();
  report->Add("sim.session.reset_ms_p50", Percentile(reset_ms, 50), "ms");
  report->Add("core.run_ms_p50", Percentile(run_ms, 50), "ms");
  report->Add("protocols.oracle_ms_p50", Percentile(oracle_ms, 50), "ms");
  report->Add("sim.events_per_query",
              static_cast<double>(first.events) / static_cast<double>(n),
              "count");
  report->Add("sim.messages_per_query", Mean(messages), "count");
  report->Add("sim.ns_per_event",
              run_s * 1e9 / static_cast<double>(first.events), "ns");
  report->Add("sim.ticks_per_s", first.ticks / run_s, "1/s");
  AddLabelMetrics(labels, report);
  report->Add("protocols.resident_state_mb",
              static_cast<double>(resident_state) / 1e6, "MB");
  report->Add("sim.resident_table_mb",
              static_cast<double>(
                  service.session().simulator().ResidentTableBytes()) /
                  1e6,
              "MB");
  report->Add("core.service.lanes_mean", Mean(first.lanes), "count");
  report->Add("core.service.peak_in_flight",
              static_cast<double>(service.peak_in_flight()), "count");
  report->Add("core.service.deferred_max",
              static_cast<double>(first.deferred_max), "count");
  report->Add("core.service.admission_wait_ticks_p90",
              Percentile(wait_ticks, 90), "ticks");
  report->Add("core.service.lifetime_ticks_p50",
              Percentile(lifetime_ticks, 50), "ticks");
  report->Add("core.service.submit_us_p50",
              Percentile(Fastest(traced, &ServicePass::submit_us), 50), "us");
  report->Add("core.service.step_ms_p50", Percentile(run_ms, 50), "ms");
  report->Add("core.service.step_ms_p90", Percentile(run_ms, 90), "ms");
  report->Add("core.service.poll_us_p50",
              Percentile(Fastest(traced, &ServicePass::poll_us), 50), "us");
  report->Add("core.solo_run_ms_p50", Percentile(solo_run_ms, 50), "ms");
  report->Add("trace.overhead_frac",
              1.0 - Sum(step_ms) / Sum(Fastest(traced, &ServicePass::step_ms)),
              "frac");
  const std::vector<double> span_ms = Fastest(traced, &ServicePass::span_ms);
  std::vector<double> span_per_arrival;
  for (size_t i = 0; i < n; ++i) {
    if (base.completions[i]) span_per_arrival.push_back(over_steps(span_ms, i));
  }
  report->Add("trace.unexplained_ms",
              Percentile(latency_ms, 50) - Percentile(span_per_arrival, 50),
              "ms");
}

// ----------------------------------------------------------------- sketch

/// FmSketch::MergeOr on c=16 operands, in isolation: median ns per merge
/// over several timed batches.
double SketchMergeNs() {
  Rng rng(1);
  sketch::FmSketch a =
      sketch::FmSketch::ForMagnitude(sketch::FmParams{kFmVectors}, 1000, &rng);
  sketch::FmSketch b =
      sketch::FmSketch::ForMagnitude(sketch::FmParams{kFmVectors}, 2000, &rng);
  constexpr int kBatches = 7;
  constexpr int kMerges = 1 << 20;
  std::vector<double> ns;
  uint64_t changed = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kMerges; ++i) {
      changed += a.MergeOr(b) ? 1 : 0;
      asm volatile("" : : "r"(&a) : "memory");
    }
    ns.push_back(SecondsBetween(t0, Clock::now()) * 1e9 / kMerges);
  }
  asm volatile("" : : "r"(changed) : "memory");
  return Median(std::move(ns));
}

}  // namespace

bool RunWorkload(const RunOptions& options, Report* report,
                 std::string* error) {
  if (options.workload == "paper-churn") {
    SetUps setups(BuildPaperChurn);
    RunClosedLoop(&setups, PaperChurnQueries(options.seed),
                  Passes(kChurnQueriesPerSecond, options, kChurnQueries),
                  options.traced, OracleUse::kEveryQuery, report, error);
  } else if (options.workload == "million-grid") {
    SetUps setups(BuildMillionGrid);
    RunClosedLoop(&setups, MillionGridQueries(options.seed),
                  Passes(kGridQueriesPerSecond, options, kGridQueries),
                  options.traced, OracleUse::kProbes, report, error);
  } else if (options.workload == "service-open") {
    RunServiceOpen(options, report, error);
  } else {
    *error = "unknown workload '" + options.workload + "'";
  }
  if (!error->empty()) return false;
  if (options.traced) report->Add("sketch.merge_ns", SketchMergeNs(), "ns");
  return true;
}

}  // namespace perfbench
