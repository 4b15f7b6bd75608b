// Epidemic (gossip) aggregation — the §2.2 eventual-consistency comparator.
//
// The paper positions Single-Site Validity against gossip algorithms
// (Kempe et al. push-sum and friends): gossip tolerates random failures and
// converges to the true aggregate *eventually*, but during churn it offers
// only probabilistic, eventually-consistent semantics — there is no instant
// at which its running answer carries an SSV-style guarantee.
//
// Implemented here: push-sum (Kempe/Dobra/Gehrke FOCS'03) for sum / count /
// avg, and a push max/min variant. Each round (every delta), every active
// host splits its (value, weight) mass in two, keeps half, and pushes half
// to one uniformly chosen alive neighbor; the local estimate is value /
// weight. Mass conservation gives convergence at the rate of the underlying
// Markov chain's mixing time (Boyd et al.); a host crash destroys the mass
// it holds, which is exactly the failure mode that breaks validity.
//
// The protocol runs for a fixed number of rounds and declares hq's local
// estimate; the bench compares its round/message budget and churn error
// against WILDFIRE's guaranteed interval.

#ifndef VALIDITY_PROTOCOLS_GOSSIP_H_
#define VALIDITY_PROTOCOLS_GOSSIP_H_

#include <vector>

#include "protocols/protocol.h"

namespace validity::protocols {

struct GossipOptions {
  /// Gossip rounds to run (paper context: lower-bounded by the mixing time
  /// of the overlay's random walk).
  uint32_t rounds = 50;
  /// Seed of the per-host partner-selection stream.
  uint64_t partner_seed = 11;
};

class GossipProtocol : public ProtocolBase {
 public:
  /// Supports kCount, kSum, kAverage (push-sum) and kMin, kMax (push-max).
  GossipProtocol(sim::Simulator* sim, QueryContext ctx,
                 GossipOptions options = {});

  void Start(HostId hq) override;
  void OnMessage(HostId self, const sim::Message& msg) override;
  /// Session reuse: rebind context + options and re-seed the partner
  /// stream, so a reused instance's partner picks replay a fresh one's
  /// bit-for-bit (see ProtocolBase).
  void ResetForQuery(QueryContext ctx, const GossipOptions& options);
  std::string_view name() const override { return "gossip"; }
  size_t ResidentStateBytes() const override {
    return states_.ResidentBytes();
  }

  /// Local estimate currently held by `h` (value/weight for push-sum).
  double LocalEstimate(HostId h) const;

 private:
  enum LocalKind : uint32_t { kBroadcast = 1, kPush = 2 };
  enum LocalTimer : uint32_t { kTimerRound = 1, kTimerDeclare = 2 };

  void OnLocalTimer(HostId self, uint32_t local_id) override;

  /// Inline wire payload: GossipPushPayload (protocol.h). The activation
  /// broadcast carries an (ignored) zero payload of the same size,
  /// preserving the protocol's fixed 24-byte message format.
  static constexpr uint32_t kPushWireBytes = 3 * sizeof(double);

  struct HostState {
    bool active = false;
    uint32_t rounds_left = 0;  // gossip exchanges still to run
    double value = 0.0;   // push-sum numerator mass
    double weight = 0.0;  // push-sum denominator mass
    double scalar = 0.0;  // min/max running extreme
  };

  bool IsExtremum() const {
    return ctx_.aggregate == AggregateKind::kMin ||
           ctx_.aggregate == AggregateKind::kMax;
  }

  void Activate(HostId self, int32_t hop);
  void DoRound(HostId self);

  GossipOptions options_;
  Rng partner_rng_;
  PagedStates<HostState> states_;
};

}  // namespace validity::protocols

#endif  // VALIDITY_PROTOCOLS_GOSSIP_H_
