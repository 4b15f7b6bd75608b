// The flood-and-report core behind ALLREPORT (paper Fig. 2, Theorem 4.3)
// and RANDOMIZEDREPORT (§4.3): hq floods the query; a host activates on the
// first copy before the horizon T = 2 * D-hat * delta, forwards it once at
// hop + 1 and, if its policy says so, reports its value to hq; hq declares
// at T from the reports that arrived by T, scaled by 1/p. The report policy
// is a compile-time parameter; no call into it is virtual.
//
// ReportAll (p = 1): every host reports. kDirect opens a direct underlay
// connection to hq — one message per report, Single-Site Valid as in the
// Theorem 4.3 proof. kReversePath relays hop by hop along broadcast parents
// (Yao & Gehrke's "Direct Delivery"), re-routing around parents known dead;
// a relay failure can still lose a stable host's report (best-effort).
//
// ReportSampled: each host reports directly with probability p. With
// p >= 4 / (eps^2 n) ln(2 / zeta) a Chernoff bound puts the count within
// (1 +- eps) |H| with probability >= 1 - zeta, for about p |H| reports.

#ifndef VALIDITY_PROTOCOLS_FLOOD_REPORT_H_
#define VALIDITY_PROTOCOLS_FLOOD_REPORT_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"
#include "protocols/protocol.h"

namespace validity::protocols {

enum class ReportRouting { kDirect, kReversePath };

struct AllReportOptions {
  ReportRouting routing = ReportRouting::kDirect;
};

struct RandomizedReportOptions {
  /// Accuracy target eps in (0,1).
  double epsilon = 0.1;
  /// Failure probability zeta in (0,1).
  double zeta = 0.05;
  /// A-priori network size estimate used to size p (the paper's n in
  /// p >= 4/(eps^2 n) ln(2/zeta)); any overestimate keeps the sample small,
  /// an underestimate only makes the answer more accurate.
  double n_estimate = 1000.0;
  /// If > 0, overrides the derived probability.
  double p_override = 0.0;
  /// Seed of the per-host report coin.
  uint64_t coin_seed = 7;

  /// InvalidArgument naming the field unless epsilon and zeta lie in (0, 1),
  /// p_override is not NaN and, for a derived p, n_estimate >= 1. Each
  /// check fails on NaN.
  Status Validate() const {
    auto bad = [](const char* what) {
      return Status::InvalidArgument(
          std::string("RandomizedReportOptions.") + what);
    };
    if (!(epsilon > 0.0 && epsilon < 1.0)) return bad("epsilon not in (0, 1)");
    if (!(zeta > 0.0 && zeta < 1.0)) return bad("zeta not in (0, 1)");
    if (std::isnan(p_override)) return bad("p_override is NaN");
    if (p_override <= 0.0 && !(n_estimate >= 1.0)) {
      return bad("n_estimate must be >= 1");
    }
    return Status::Ok();
  }
};

/// ALLREPORT's policy: every host reports {origin, value}, directly or
/// along the reverse broadcast path.
struct ReportAll {
  using Options = AllReportOptions;
  static constexpr std::string_view kName = "all-report";
  static constexpr double p = 1.0;

  struct HostState {  // 12 bytes
    bool active = false;
    int32_t depth = 0;
    HostId parent = kInvalidHost;
  };
  using Broadcast = HopPayload;  // 4 wire bytes
  struct Report {                // 12 wire bytes
    HostId origin = kInvalidHost;
    double value = 0.0;
  };
  static constexpr uint32_t kBroadcastBytes = sizeof(int32_t);
  static constexpr uint32_t kReportBytes = sizeof(HostId) + sizeof(double);

  ReportAll(const Options& options, AggregateKind)
      : reverse_path(options.routing == ReportRouting::kReversePath) {}

  static HostState Activated(HostId parent, int32_t depth) {
    return {true, depth, parent};
  }
  static Broadcast MakeBroadcast(int32_t depth) { return {depth}; }
  static bool Reports(HostId) { return true; }
  static Report MakeReport(HostId self, double value) { return {self, value}; }

  bool reverse_path;
};

/// RANDOMIZEDREPORT's policy: each host reports its bare value, directly,
/// when its coin (seeded per host) lands heads with probability p.
struct ReportSampled {
  using Options = RandomizedReportOptions;
  static constexpr std::string_view kName = "randomized-report";

  struct HostState {  // 1 byte
    bool active = false;
  };
  struct Broadcast {  // 12 wire bytes
    int32_t hop = 0;
    double p = 1.0;
  };
  struct Report {  // 8 wire bytes
    double value = 0.0;
  };
  static constexpr uint32_t kBroadcastBytes = sizeof(int32_t) + sizeof(double);
  static constexpr uint32_t kReportBytes = sizeof(double);

  /// Checks `options` and derives the report probability p.
  ReportSampled(const Options& options, AggregateKind aggregate)
      : coin_seed(options.coin_seed) {
    VALIDITY_CHECK(aggregate == AggregateKind::kCount ||
                       aggregate == AggregateKind::kSum,
                   "randomized report estimates count or sum only");
    const Status status = options.Validate();
    VALIDITY_CHECK(status.ok(), "%s", status.message().c_str());
    p = std::min(1.0, options.p_override > 0.0
                          ? options.p_override
                          : 4.0 / (options.epsilon * options.epsilon *
                                   options.n_estimate) *
                                std::log(2.0 / options.zeta));
  }

  static HostState Activated(HostId, int32_t) { return {true}; }
  Broadcast MakeBroadcast(int32_t depth) const { return {depth, p}; }
  bool Reports(HostId self) const {
    Rng coin(Mix64(coin_seed ^
                   (0xa0761d6478bd642fULL + static_cast<uint64_t>(self))));
    return coin.Bernoulli(p);
  }
  static Report MakeReport(HostId, double value) { return {value}; }

  uint64_t coin_seed;
  double p = 1.0;
};

template <class Policy>
class FloodReport : public ProtocolBase {
 public:
  using Options = typename Policy::Options;

  FloodReport(sim::Simulator* sim, QueryContext ctx,
              const Options& options = {})
      : ProtocolBase(sim, std::move(ctx)), policy_(options, ctx_.aggregate) {}

  void Start(HostId hq) override {
    VALIDITY_CHECK(sim_->IsAlive(hq), "querying host must be alive");
    hq_ = hq;
    start_time_ = sim_->Now();
    states_.Reset(sim_->num_hosts());
    collected_ = ScalarPartial{};
    Activate(hq, kInvalidHost, 0);
    ScheduleLocalTimer(hq, Horizon(), kTimerDeclare);
  }

  void OnMessage(HostId self, const sim::Message& msg) override {
    uint32_t local = 0;
    if (!DecodeKind(msg.kind, &local)) return;
    const HostState* stp = states_.Find(self);
    if (local == kBroadcast) {
      if (stp != nullptr && stp->active) return;
      if (sim_->Now() >= Horizon()) return;
      Activate(self, msg.src,
               msg.LoadInline<typename Policy::Broadcast>().hop + 1);
    } else if (local == kReport) {
      if (sim_->Now() > Horizon()) return;  // late reports are discarded
      if (self == hq_) {
        collected_.AddHost(msg.LoadInline<typename Policy::Report>().value);
      } else if constexpr (std::is_same_v<Policy, ReportAll>) {
        // Relay duty (reverse-path routing only); needs a parent pointer.
        if (stp != nullptr && stp->active) RelayTowardRoot(self, msg);
      }
    }
  }

  /// Session reuse: rebind context + options and re-arm (see ProtocolBase).
  void ResetForQuery(QueryContext ctx, const Options& options) {
    ProtocolBase::ResetForQuery(std::move(ctx));
    policy_ = Policy(options, ctx_.aggregate);
  }
  std::string_view name() const override { return Policy::kName; }
  size_t ResidentStateBytes() const override {
    return states_.ResidentBytes();
  }

  /// The report probability p (1 for ALLREPORT).
  double report_probability() const { return policy_.p; }
  /// Number of hosts whose values reached hq (|M|, including hq itself).
  uint64_t reports_collected() const { return collected_.count; }

 private:
  using HostState = typename Policy::HostState;
  enum LocalKind : uint32_t { kBroadcast = 1, kReport = 2 };
  enum LocalTimer : uint32_t { kTimerDeclare = 1 };

  // Fig. 2: forward the query, report own value, terminate.
  void Activate(HostId self, HostId parent, int32_t depth) {
    states_.Touch(self) = Policy::Activated(parent, depth);
    sim::Message out;
    out.kind = MakeKind(kBroadcast);
    out.StoreInline(policy_.MakeBroadcast(depth), Policy::kBroadcastBytes);
    sim_->SendToNeighbors(self, std::move(out));

    if (!policy_.Reports(self)) return;
    const double value = HostValue(self);
    if (self == hq_) {
      collected_.AddHost(value);
      return;
    }
    sim::Message report;
    report.kind = MakeKind(kReport);
    report.StoreInline(Policy::MakeReport(self, value), Policy::kReportBytes);
    if constexpr (std::is_same_v<Policy, ReportAll>) {
      if (policy_.reverse_path) {
        RelayTowardRoot(self, report);
        return;
      }
    }
    sim_->SendDirect(self, hq_, std::move(report));
  }

  void RelayTowardRoot(HostId self, const sim::Message& msg) {
    // Prefer the broadcast parent; if it is known dead, fall back to any
    // alive neighbor (the relay still only moves along overlay edges).
    HostId next = states_.Find(self)->parent;
    if (next == kInvalidHost || !sim_->IsAlive(next)) {
      next = kInvalidHost;
      sim_->ForEachAliveNeighbor(self, [&](HostId nb) {
        if (next == kInvalidHost) next = nb;
      });
    }
    if (next == kInvalidHost) return;  // isolated: report is lost
    sim_->SendTo(self, next, msg);
  }

  void OnLocalTimer(HostId, uint32_t local_id) override {
    if (local_id != kTimerDeclare) return;
    result_.value = collected_.Extract(ctx_.aggregate) * (1.0 / policy_.p);
    result_.declared_at = sim_->Now();
    result_.declared = true;
  }

  Policy policy_;
  PagedStates<HostState> states_;
  ScalarPartial collected_;
};

using AllReportProtocol = FloodReport<ReportAll>;
using RandomizedReportProtocol = FloodReport<ReportSampled>;

}  // namespace validity::protocols

#endif  // VALIDITY_PROTOCOLS_FLOOD_REPORT_H_
