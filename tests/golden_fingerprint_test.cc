// Cross-commit golden guard: every case of the 34-case fingerprint matrix
// and of the fault matrix (6 fault specs x 5 protocol cases) is run through
// QueryEngine::Run and hashed into one 64-bit digest over every field that
// ExpectIdentical compares, except resident_state_bytes (a property of the
// per-host record layout, which a refactor may shrink without changing any
// result). The digests are compared with the table below.
//
// The other fingerprint tests compare entry points with each other inside
// one build, so a change that moves every entry point's answer the same way
// passes them. This test catches it: a refactor that claims to keep results
// bit-identical must leave every digest where it is.
//
// A second table pins delivery order: for each of its cases, one digest
// over the complete TraceRecorder stream (every send, delivery and drop with
// its time) plus the simulator's executed-event count. A change to how the
// simulator schedules or batches deliveries must leave both tables alone.
//
// Re-recording a table is allowed only for a deliberate result change, and
// that change must be named in CHANGES.md. On a mismatch the test prints
// each failing case's label with its new digest, in table syntax.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/experiment.h"
#include "fingerprint_matrix.h"
#include "sim/session.h"
#include "sim/trace.h"
#include "topology/generators.h"

namespace validity::core {
namespace {

/// FNV-1a over the fields' bit patterns. Self-contained on purpose: the
/// digest must not move when a hash function in src/ does.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(bool v) { Add(static_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t DigestOf(const QueryResult& r) {
  Digest d;
  d.Add(r.value);
  d.Add(r.declared);
  d.Add(r.d_hat_used);
  d.Add(r.exact_full);
  d.Add(r.cost.messages);
  d.Add(r.cost.bytes);
  d.Add(r.cost.max_processed);
  d.Add(r.cost.declared_at);
  d.Add(r.cost.last_update_at);
  d.Add(static_cast<uint64_t>(r.cost.sends_per_tick.size()));
  for (uint64_t sends : r.cost.sends_per_tick) d.Add(sends);
  const auto items = r.cost.computation_histogram.Items();
  d.Add(static_cast<uint64_t>(items.size()));
  for (const auto& [processed, hosts] : items) {
    d.Add(processed);
    d.Add(hosts);
  }
  d.Add(r.validity.q_low);
  d.Add(r.validity.q_high);
  d.Add(r.validity.hc_size);
  d.Add(r.validity.hu_size);
  d.Add(r.validity.within);
  d.Add(r.validity.within_slack);
  return d.value();
}

struct Golden {
  const char* label;
  uint64_t digest;
};

// Recorded at the commit before the level-convergecast merge.
constexpr Golden kGolden[] = {
    {"matrix/all-report/count-exact", 0xe1d984fa7ff11f5aULL},
    {"matrix/all-report/count-fm", 0xe1d984fa7ff11f5aULL},
    {"matrix/randomized-report/count-exact", 0x2271378100974aa8ULL},
    {"matrix/randomized-report/count-fm", 0x2271378100974aa8ULL},
    {"matrix/spanning-tree/count-exact", 0xed2be32f51bef0bcULL},
    {"matrix/spanning-tree/count-fm", 0xed2be32f51bef0bcULL},
    {"matrix/dag/count-exact", 0xfbc786ba5727e912ULL},
    {"matrix/dag/count-fm", 0xbf7bde754340df69ULL},
    {"matrix/wildfire/count-exact", 0x9e363889e86b2c05ULL},
    {"matrix/wildfire/count-fm", 0x336d1c9fb9192321ULL},
    {"matrix/all-report/count-churn", 0x15ed5bff8421f2a1ULL},
    {"matrix/randomized-report/count-churn", 0xe27a4a09d3e77c34ULL},
    {"matrix/spanning-tree/count-churn", 0x72048be7f287fc5fULL},
    {"matrix/dag/count-churn", 0xfd2565d35ef14885ULL},
    {"matrix/wildfire/count-churn", 0x8ab912dd5f3b9de1ULL},
    {"matrix/wildfire/wf-sum", 0xa850f3dab7427f10ULL},
    {"matrix/wildfire/wf-min", 0x1d0ace0a4335329cULL},
    {"matrix/wildfire/wf-max", 0x6daa1bc23c2d8b99ULL},
    {"matrix/wildfire/wf-avg", 0xb3277888e1de5de9ULL},
    {"matrix/dag/dag-sum", 0x77d3cfbf17526de3ULL},
    {"matrix/dag/dag-min", 0x93ab53f44c63d1c3ULL},
    {"matrix/spanning-tree/tree-sum", 0xa6549e72ce456c38ULL},
    {"matrix/spanning-tree/tree-avg", 0x4e927de495cdf7f8ULL},
    {"matrix/all-report/ar-sum", 0x06316d7aceab9d06ULL},
    {"matrix/all-report/ar-reverse", 0x44efd4a728220ec3ULL},
    {"matrix/wildfire/wf-no-piggyback", 0x3573fd306427624bULL},
    {"matrix/wildfire/wf-no-early-term", 0x300575acd964cfd3ULL},
    {"matrix/wildfire/wf-no-coalesce", 0x41a60f522813601cULL},
    {"matrix/dag/dag-k3", 0xe19d531f975624baULL},
    {"matrix/spanning-tree/tree-eager", 0x4f2de4bc73d80246ULL},
    {"matrix/wildfire/wf-wireless", 0x169fc555ea1923d0ULL},
    {"matrix/wildfire/wf-churn-sum", 0xf3925de9e4a31c01ULL},
    {"matrix/randomized-report/rr-churn-sum", 0x4240ca527c07aa57ULL},
    {"matrix/wildfire/wf-hq7", 0x98ec3054c51a571aULL},
    {"fault/drop/wf-fm", 0x3df55686e792b606ULL},
    {"fault/drop/wf-churn", 0xf93589b08000cef7ULL},
    {"fault/drop/tree", 0xbf4eafc8bc66afe2ULL},
    {"fault/drop/gossip", 0x9938a30f600ed82fULL},
    {"fault/drop/dag", 0x1d76e16ae871561fULL},
    {"fault/dup+delay/wf-fm", 0x6028260ca1b77c4bULL},
    {"fault/dup+delay/wf-churn", 0x24462fb5c73bbc2eULL},
    {"fault/dup+delay/tree", 0x894c47b52a7bc2f7ULL},
    {"fault/dup+delay/gossip", 0x8f96bd850218549aULL},
    {"fault/dup+delay/dag", 0x7a266722c1357eceULL},
    {"fault/byz-inflate/wf-fm", 0x3888b43a2cb00010ULL},
    {"fault/byz-inflate/wf-churn", 0x5d79104f41d6cfdfULL},
    {"fault/byz-inflate/tree", 0x2d75e4d49541f0c6ULL},
    {"fault/byz-inflate/gossip", 0x080e931411e5af5eULL},
    {"fault/byz-inflate/dag", 0x45e1d1753fd75ef3ULL},
    {"fault/byz-deaden/wf-fm", 0x4ac611821c065a0bULL},
    {"fault/byz-deaden/wf-churn", 0xcdae29b4e6157467ULL},
    {"fault/byz-deaden/tree", 0xad75c81251805b14ULL},
    {"fault/byz-deaden/gossip", 0xc0417debf6159b57ULL},
    {"fault/byz-deaden/dag", 0x84743460bc16315bULL},
    {"fault/byz-stale/wf-fm", 0x9a6a05361a758d94ULL},
    {"fault/byz-stale/wf-churn", 0x164c2b90af952e6cULL},
    {"fault/byz-stale/tree", 0x190d63fa6ce97563ULL},
    {"fault/byz-stale/gossip", 0x018341aa95087ac6ULL},
    {"fault/byz-stale/dag", 0x45e1d1753fd75ef3ULL},
    {"fault/weather/wf-fm", 0xf6dad4dbfe61dfc5ULL},
    {"fault/weather/wf-churn", 0x092f825c46174634ULL},
    {"fault/weather/tree", 0xd46b550d222c5c02ULL},
    {"fault/weather/gossip", 0xdf3fa135b82b8269ULL},
    {"fault/weather/dag", 0x015d2e84f77d4be0ULL},
};

struct Observed {
  std::string label;
  uint64_t digest;
};

std::vector<Observed> RunAllCases() {
  std::vector<Observed> out;
  {
    topology::Graph graph = *topology::MakeGnutellaLike(500, 91);
    QueryEngine engine(&graph, MakeZipfValues(500, 91));
    for (const Case& c : FingerprintMatrix()) {
      auto result = engine.Run(c.spec, c.config, c.hq);
      EXPECT_TRUE(result.ok()) << c.label;
      out.push_back({std::string("matrix/") +
                         protocols::ProtocolKindName(c.config.protocol) +
                         "/" + c.label,
                     result.ok() ? DigestOf(*result) : 0});
    }
  }
  topology::Graph graph = *topology::MakeGnutellaLike(400, 91);
  QueryEngine engine(&graph, MakeZipfValues(400, 91));
  for (const auto& [fault_label, fault] : FaultMatrix()) {
    for (const FaultProtoCase& pc : FaultProtoCases()) {
      QuerySpec spec;
      RunConfig config;
      MakeFaultCase(pc, fault, &spec, &config);
      auto result = engine.Run(spec, config, 0);
      std::string label = std::string("fault/") + fault_label + "/" + pc.label;
      EXPECT_TRUE(result.ok()) << label;
      out.push_back({label, result.ok() ? DigestOf(*result) : 0});
    }
  }
  return out;
}

// Compares `observed` with `table`, case by case, and prints every moved
// case in table syntax.
template <size_t N>
void ExpectMatchesTable(const std::vector<Observed>& observed,
                        const Golden (&table)[N]) {
  EXPECT_EQ(N, observed.size()) << "golden table size";
  size_t mismatches = 0;
  for (size_t i = 0; i < observed.size(); ++i) {
    const Observed& o = observed[i];
    if (i < N && o.label == table[i].label && o.digest == table[i].digest) {
      continue;
    }
    ++mismatches;
    ADD_FAILURE() << "digest moved: " << o.label;
    std::printf("    {\"%s\", 0x%016llxULL},\n", o.label.c_str(),
                static_cast<unsigned long long>(o.digest));
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(GoldenFingerprintTest, EveryCaseMatchesItsRecordedDigest) {
  const std::vector<Observed> observed = RunAllCases();
  ASSERT_EQ(observed.size(), 34u + 6u * 5u);
  ExpectMatchesTable(observed, kGolden);
}

// Recorded before deliveries of one fan-out were batched into one event.
constexpr Golden kDeliveryOrder[] = {
    {"grid/wildfire", 0x8b7ca06b66409d65ULL},
    {"grid/wildfire-churn", 0x24bebe819975612fULL},
    {"grid/dag-k3-churn", 0x60e64bfc554c05d2ULL},
    {"gnutella/none/spanning-tree/count", 0x81464955661a831eULL},
    {"gnutella/none/spanning-tree/sum", 0x81464955661a831eULL},
    {"gnutella/none/dag-k2/count", 0x14b0407a51f075b4ULL},
    {"gnutella/none/dag-k2/sum", 0x14b0407a51f075b4ULL},
    {"gnutella/none/dag-k3/count", 0xf23fa01219ad1905ULL},
    {"gnutella/none/dag-k3/sum", 0xf23fa01219ad1905ULL},
    {"gnutella/none/wildfire/count", 0xf97c5d6b988e2609ULL},
    {"gnutella/none/wildfire/sum", 0x986065e1b7b1925bULL},
    {"gnutella/lossy/spanning-tree/count", 0x3af507500431a1a8ULL},
    {"gnutella/lossy/spanning-tree/sum", 0x3af507500431a1a8ULL},
    {"gnutella/lossy/dag-k2/count", 0x2380de19ba6b0ffeULL},
    {"gnutella/lossy/dag-k2/sum", 0x2380de19ba6b0ffeULL},
    {"gnutella/lossy/dag-k3/count", 0xe16f35d61b8e01e2ULL},
    {"gnutella/lossy/dag-k3/sum", 0xe16f35d61b8e01e2ULL},
    {"gnutella/lossy/wildfire/count", 0x952355cee582d971ULL},
    {"gnutella/lossy/wildfire/sum", 0x51b3c35c6b731d66ULL},
    {"gnutella/same-instant-dup/spanning-tree/count", 0xc2aae7f452d388e4ULL},
    {"gnutella/same-instant-dup/spanning-tree/sum", 0xc2aae7f452d388e4ULL},
    {"gnutella/same-instant-dup/dag-k2/count", 0x90e9a09a5ec0eed4ULL},
    {"gnutella/same-instant-dup/dag-k2/sum", 0x90e9a09a5ec0eed4ULL},
    {"gnutella/same-instant-dup/dag-k3/count", 0x47f5a97fd170082eULL},
    {"gnutella/same-instant-dup/dag-k3/sum", 0x47f5a97fd170082eULL},
    {"gnutella/same-instant-dup/wildfire/count", 0xe3ea9a5c12210e02ULL},
    {"gnutella/same-instant-dup/wildfire/sum", 0xbb0754b5cebe842eULL},
};

/// Runs one query on a fresh session with a trace recorder attached, folds
/// the trace stream and the executed-event count into `d`, and returns the
/// query's result.
QueryResult RunTraced(const QueryEngine& engine, const QuerySpec& spec,
                      const RunConfig& config, HostId hq,
                      const std::string& label, Digest* d_out) {
  sim::SimulatorSession session(engine.topology(), config.sim_options);
  sim::TraceRecorder trace(size_t{1} << 23);
  session.simulator().AttachTrace(&trace);
  auto result = engine.Run(&session, spec, config, hq);
  EXPECT_TRUE(result.ok()) << label;
  EXPECT_EQ(trace.overflowed(), 0u) << label;
  Digest& d = *d_out;
  for (const sim::TraceEvent& e : trace.events()) {
    d.Add(static_cast<uint64_t>(e.kind));
    d.Add(e.time);
    d.Add(static_cast<uint64_t>(e.src));
    d.Add(static_cast<uint64_t>(e.dst));
    // The kind's upper bits carry the lane's instance tag, which counts
    // protocol objects built earlier in the process; hash the local kind.
    d.Add(static_cast<uint64_t>(e.message_kind & sim::kLocalKindMask));
  }
  d.Add(session.simulator().events_executed());
  return result.ok() ? *result : QueryResult();
}

/// Digest of one query's trace stream and executed-event count.
uint64_t DeliveryOrderDigest(const QueryEngine& engine, const QuerySpec& spec,
                             const RunConfig& config, HostId hq,
                             const std::string& label) {
  Digest d;
  RunTraced(engine, spec, config, hq, label, &d);
  return d.value();
}

/// An 80x80 wireless grid with million-grid's D-hat of 10 (one broadcast
/// per transmission) and the paper's
/// four-protocol lineup on an 800-host Gnutella graph under churn, without
/// faults, with drop/duplicate/delay faults, and with max_delay_hops = 0
/// (every duplicate arrives at the original instant).
std::vector<Observed> RunDeliveryOrderCases() {
  std::vector<Observed> out;
  {
    constexpr uint32_t kSide = 80;
    QueryEngine engine(*topology::Topology::Grid(kSide),
                       MakeZipfValues(kSide * kSide, 91));
    const HostId center = (kSide / 2) * kSide + kSide / 2;
    auto grid = [&](const char* label, protocols::ProtocolKind kind,
                    uint32_t removals, uint32_t max_parents) {
      QuerySpec spec;
      RunConfig config;
      config.protocol = kind;
      spec.d_hat = 10;
      config.protocol_options.dag.max_parents = max_parents;
      config.sim_options.medium = sim::MediumKind::kWireless;
      config.churn_removals = removals;
      const std::string full = std::string("grid/") + label;
      out.push_back(
          {full, DeliveryOrderDigest(engine, spec, config, center, full)});
    };
    grid("wildfire", protocols::ProtocolKind::kWildfire, 0, 1);
    grid("wildfire-churn", protocols::ProtocolKind::kWildfire, 300, 1);
    grid("dag-k3-churn", protocols::ProtocolKind::kDag, 300, 3);
  }
  topology::Graph graph = *topology::MakeGnutellaLike(800, 91);
  QueryEngine engine(&graph, MakeZipfValues(800, 91));
  sim::FaultSpec lossy;
  lossy.seed = 21;
  lossy.drop_rate = 0.1;
  lossy.duplicate_rate = 0.15;
  lossy.delay_rate = 0.2;
  lossy.max_delay_hops = 2;
  sim::FaultSpec same_instant;
  same_instant.seed = 22;
  same_instant.drop_rate = 0.05;
  same_instant.duplicate_rate = 0.25;
  same_instant.max_delay_hops = 0;
  const std::pair<const char*, sim::FaultSpec> faults[] = {
      {"none", sim::FaultSpec{}},
      {"lossy", lossy},
      {"same-instant-dup", same_instant}};
  for (const auto& [fault_label, fault] : faults) {
    for (const ProtocolSpec& p : StandardLineup()) {
      for (AggregateKind agg : {AggregateKind::kCount, AggregateKind::kSum}) {
        QuerySpec spec;
        spec.aggregate = agg;
        RunConfig config;
        config.protocol = p.kind;
        config.protocol_options = p.options;
        config.churn_removals = 40;
        config.fault = fault;
        const std::string label =
            std::string("gnutella/") + fault_label + "/" + p.label +
            (agg == AggregateKind::kCount ? "/count" : "/sum");
        out.push_back(
            {label, DeliveryOrderDigest(engine, spec, config, 0, label)});
      }
    }
  }
  return out;
}

TEST(GoldenFingerprintTest, DeliveryOrderMatchesItsRecordedDigest) {
  const std::vector<Observed> observed = RunDeliveryOrderCases();
  ASSERT_EQ(observed.size(), 3u + 3u * 4u * 2u);
  ExpectMatchesTable(observed, kDeliveryOrder);
}

// Recorded before ALL-REPORT and RANDOMIZEDREPORT were merged into one
// flood-and-report core.
constexpr Golden kReportFamily[] = {
    {"report/none/ar-direct/count", 0x288f79f1a17ced9fULL},
    {"report/none/ar-direct/sum", 0x879af4bc66277d26ULL},
    {"report/none/ar-reverse/count", 0x402b9db46df895d6ULL},
    {"report/none/ar-reverse/sum", 0xad3041bcd1f1563dULL},
    {"report/none/rr-derived/count", 0x51591ecb8d404614ULL},
    {"report/none/rr-derived/sum", 0xf0c46500bfe8e19fULL},
    {"report/none/rr-p0.25/count", 0xe6d8342b5c158d05ULL},
    {"report/none/rr-p0.25/sum", 0x5451ca5e0e38ad9dULL},
    {"report/lossy/ar-direct/count", 0x6968e4337956759bULL},
    {"report/lossy/ar-direct/sum", 0x1fa5e8fb9859cf3fULL},
    {"report/lossy/ar-reverse/count", 0x7cf30129b8b4b93bULL},
    {"report/lossy/ar-reverse/sum", 0x7f1a1b19b00d2f73ULL},
    {"report/lossy/rr-derived/count", 0x7e40bee05096884cULL},
    {"report/lossy/rr-derived/sum", 0x248f5687481a8078ULL},
    {"report/lossy/rr-p0.25/count", 0x1a607e828aa3e3a2ULL},
    {"report/lossy/rr-p0.25/sum", 0xa836f855bae60b43ULL},
    {"report/byz-inflate/ar-direct/count", 0x288f79f1a17ced9fULL},
    {"report/byz-inflate/ar-direct/sum", 0x879af4bc66277d26ULL},
    {"report/byz-inflate/ar-reverse/count", 0x402b9db46df895d6ULL},
    {"report/byz-inflate/ar-reverse/sum", 0xad3041bcd1f1563dULL},
    {"report/byz-inflate/rr-derived/count", 0x51591ecb8d404614ULL},
    {"report/byz-inflate/rr-derived/sum", 0xf0c46500bfe8e19fULL},
    {"report/byz-inflate/rr-p0.25/count", 0xe6d8342b5c158d05ULL},
    {"report/byz-inflate/rr-p0.25/sum", 0x5451ca5e0e38ad9dULL},
    {"report/byz-deaden/ar-direct/count", 0x8dacb36a0719349bULL},
    {"report/byz-deaden/ar-direct/sum", 0x97de8c408cca3f38ULL},
    {"report/byz-deaden/ar-reverse/count", 0xdf2678de99f4e07aULL},
    {"report/byz-deaden/ar-reverse/sum", 0xf0457b935f01a42aULL},
    {"report/byz-deaden/rr-derived/count", 0x382fc0baa21cacb7ULL},
    {"report/byz-deaden/rr-derived/sum", 0xb0477936735eb44fULL},
    {"report/byz-deaden/rr-p0.25/count", 0x97018dfd9ff1bf6fULL},
    {"report/byz-deaden/rr-p0.25/sum", 0x9f379bb5014767cdULL},
    {"report/byz-stale/ar-direct/count", 0x288f79f1a17ced9fULL},
    {"report/byz-stale/ar-direct/sum", 0x879af4bc66277d26ULL},
    {"report/byz-stale/ar-reverse/count", 0x402b9db46df895d6ULL},
    {"report/byz-stale/ar-reverse/sum", 0x293e63af3e17f8d0ULL},
    {"report/byz-stale/rr-derived/count", 0x51591ecb8d404614ULL},
    {"report/byz-stale/rr-derived/sum", 0xf0c46500bfe8e19fULL},
    {"report/byz-stale/rr-p0.25/count", 0xe6d8342b5c158d05ULL},
    {"report/byz-stale/rr-p0.25/sum", 0x5451ca5e0e38ad9dULL},
};

/// ALL-REPORT (direct and reverse-path) and RANDOMIZEDREPORT (derived p and
/// p_override = 0.25), COUNT and SUM, on a 400-host Gnutella graph with 40
/// churn removals, without faults, under drop/duplicate/delay link faults,
/// and with each byzantine mode. Each digest covers the result, the per-host
/// record size (which the first table leaves out) and the trace stream.
std::vector<Observed> RunReportFamilyCases() {
  using protocols::ProtocolKind;
  topology::Graph graph = *topology::MakeGnutellaLike(400, 91);
  QueryEngine engine(&graph, MakeZipfValues(400, 91));
  sim::FaultSpec lossy;
  lossy.seed = 23;
  lossy.drop_rate = 0.1;
  lossy.duplicate_rate = 0.15;
  lossy.delay_rate = 0.2;
  lossy.max_delay_hops = 2;
  std::vector<std::pair<const char*, sim::FaultSpec>> faults = {
      {"none", sim::FaultSpec{}}, {"lossy", lossy}};
  for (const auto& [label, fault] : FaultMatrix()) {
    if (fault.HasByzantine() && !fault.HasLinkFaults()) {
      faults.emplace_back(label, fault);
    }
  }
  struct Variant {
    const char* label;
    ProtocolKind kind;
    protocols::ProtocolOptions options;
  };
  std::vector<Variant> variants(4);
  variants[0] = {"ar-direct", ProtocolKind::kAllReport, {}};
  variants[1] = {"ar-reverse", ProtocolKind::kAllReport, {}};
  variants[1].options.all_report.routing =
      protocols::ReportRouting::kReversePath;
  // n_estimate = 0: the engine sizes p for the 400 hosts (p ~ 0.41).
  variants[2] = {"rr-derived", ProtocolKind::kRandomizedReport, {}};
  variants[2].options.randomized.epsilon = 0.3;
  variants[2].options.randomized.n_estimate = 0;
  variants[3] = {"rr-p0.25", ProtocolKind::kRandomizedReport, {}};
  variants[3].options.randomized.p_override = 0.25;

  std::vector<Observed> out;
  for (const auto& [fault_label, fault] : faults) {
    for (const Variant& v : variants) {
      for (AggregateKind agg : {AggregateKind::kCount, AggregateKind::kSum}) {
        QuerySpec spec;
        spec.aggregate = agg;
        RunConfig config;
        config.protocol = v.kind;
        config.protocol_options = v.options;
        config.churn_removals = 40;
        config.fault = fault;
        const std::string label =
            std::string("report/") + fault_label + "/" + v.label +
            (agg == AggregateKind::kCount ? "/count" : "/sum");
        Digest d;
        const QueryResult result =
            RunTraced(engine, spec, config, 0, label, &d);
        d.Add(DigestOf(result));
        d.Add(static_cast<uint64_t>(result.resident_state_bytes));
        out.push_back({label, d.value()});
      }
    }
  }
  return out;
}

TEST(GoldenFingerprintTest, ReportFamilyMatchesItsRecordedDigest) {
  const std::vector<Observed> observed = RunReportFamilyCases();
  ASSERT_EQ(observed.size(), 5u * 4u * 2u);
  ExpectMatchesTable(observed, kReportFamily);
}

// The digest sees every compared field: changing any one moves it.
TEST(GoldenFingerprintTest, DigestCoversEveryComparedField) {
  QueryResult base;
  base.cost.sends_per_tick = {1, 2};
  base.cost.computation_histogram.Add(3);
  const uint64_t d0 = DigestOf(base);
  std::vector<QueryResult> variants(17, base);
  variants[0].value = 1;
  variants[1].declared = true;
  variants[2].d_hat_used = 1;
  variants[3].exact_full = 1;
  variants[4].cost.messages = 1;
  variants[5].cost.bytes = 1;
  variants[6].cost.max_processed = 1;
  variants[7].cost.declared_at = 1;
  variants[8].cost.last_update_at = 1;
  variants[9].cost.sends_per_tick[1] = 3;
  variants[10].cost.computation_histogram.Add(3);
  variants[11].validity.q_low = 1;
  variants[12].validity.q_high = 1;
  variants[13].validity.hc_size = 1;
  variants[14].validity.hu_size = 1;
  variants[15].validity.within = true;
  variants[16].validity.within_slack = true;
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(DigestOf(variants[i]), d0) << "field " << i;
  }
  QueryResult layout_only = base;
  layout_only.resident_state_bytes = 4096;
  EXPECT_EQ(DigestOf(layout_only), d0);
}

}  // namespace
}  // namespace validity::core
