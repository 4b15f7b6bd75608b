// Deterministic fault plane: lossy links and byzantine hosts.
//
// The paper's guarantees assume links deliver what they carry and hosts
// follow the protocol; this subsystem is the controlled way to break both
// assumptions (ROADMAP item 5) while keeping every run bit-reproducible.
//
// Two independent mechanisms compose:
//
//  - Link faults (drop / duplicate / bounded extra delay) live inside the
//    Simulator's send paths. Each in-flight delivery's fate is a pure
//    function of (FaultSpec.seed, from, to, send_time, channel) — a
//    stateless hash, exactly the seeding discipline core/sweep.h uses for
//    churn. No counter, no RNG stream: the same message on the same link at
//    the same instant meets the same fate whether the run is fresh,
//    session-reused, or multiplexed with concurrent queries, at any sweep
//    thread count. (A per-link message counter would look more natural but
//    breaks exactly that contract: a concurrent lane's extra traffic would
//    advance the counter and change a solo query's fates. Likewise hashing
//    the protocol instance id would break fresh == session-reused, since
//    a reused session's simulator keeps counting ids. The cost of statelessness is that
//    messages sharing (link, instant, channel) share a fate — correlated
//    momentary link conditions, which is the model we document.)
//
//  - Byzantine hosts corrupt traffic at the receiver's doorstep: a
//    ByzantineInterposer wraps the protocol's HostProgram and rewrites (or
//    suppresses) messages whose *sender* hashes into the byzantine subset.
//    Protocol internals are untouched; the interposer edits a copy of the
//    message through a protocol-aware ByzantineMutator
//    (protocols/byzantine.h supplies the standard one).
//
// With no FaultSpec installed the simulator's hot send path pays a single
// predicted-not-taken null test (see Simulator::SendTo) and remains
// allocation-free; tests/alloc_free_test.cc and BENCH_micro.json pin this.

#ifndef VALIDITY_SIM_FAULT_H_
#define VALIDITY_SIM_FAULT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "sim/simulator.h"

namespace validity::sim {

/// What a deterministic subset of hosts does to the traffic it sends.
enum class ByzantineMode : uint8_t {
  kNone = 0,
  /// Merge phantom contributions into every forwarded aggregate (inflated
  /// FM sketches, extreme scalars, padded exact partials).
  kInflate,
  /// Silently discard reply-channel traffic (convergecast reports, gossip
  /// pushes) while still participating in dissemination.
  kDeadenReplies,
  /// Replay the first payload ever sent per (host, kind) in place of every
  /// later one — stale versions and stale partial aggregates.
  kStaleReplay,
};

const char* ByzantineModeName(ByzantineMode mode);

/// A run's complete fault configuration. Value semantics: RunConfig carries
/// one by value, and concurrent queries on a shared session must agree on it
/// (operator== is the batch-validation hook, like the churn fields).
struct FaultSpec {
  /// Root of every fault decision. Independent of churn_seed/sketch_seed;
  /// sweeps re-mix it per cell (core/experiment.cc) so trials draw
  /// independent fault schedules.
  uint64_t seed = 0;

  // --- link faults ------------------------------------------------------
  /// Probability an in-flight delivery is lost. The send was already
  /// charged — same accounting as a destination dying in flight.
  double drop_rate = 0.0;
  /// Probability a delivery arrives twice (the copy delayed by up to
  /// max_delay_hops extra hops, possibly zero).
  double duplicate_rate = 0.0;
  /// Probability a delivery is late by 1..max_delay_hops extra hops.
  double delay_rate = 0.0;
  /// Extra delay bound, in whole delta hops (0 disables delay faults and
  /// makes duplicates arrive at the original instant).
  uint32_t max_delay_hops = 1;

  // --- byzantine hosts --------------------------------------------------
  ByzantineMode byzantine_mode = ByzantineMode::kNone;
  /// Expected fraction of hosts acting byzantine; membership is a stateless
  /// hash of (seed, host id), so runtime-joined hosts are covered too.
  double byzantine_fraction = 0.0;
  /// kInflate: phantom contributions merged per corrupted message
  /// (0 = one per network host, which roughly doubles a count).
  uint32_t inflate_phantoms = 0;

  bool HasLinkFaults() const {
    return drop_rate > 0 || duplicate_rate > 0 || delay_rate > 0;
  }
  bool HasByzantine() const {
    return byzantine_mode != ByzantineMode::kNone && byzantine_fraction > 0;
  }
  bool enabled() const { return HasLinkFaults() || HasByzantine(); }

  /// InvalidArgument unless drop_rate, duplicate_rate, delay_rate, and
  /// byzantine_fraction are all probabilities in [0, 1]. A NaN rate would
  /// otherwise read as "no faults" in HasLinkFaults while comparing unequal
  /// to itself.
  Status Validate() const;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// Human-readable cell label for sweeps and figure tables: "none",
/// "drop=0.10", "drop=0.10+byz-inflate=0.20", ...
std::string FaultSpecLabel(const FaultSpec& spec);

/// The fate of one in-flight delivery.
struct LinkFate {
  bool drop = false;
  bool duplicate = false;
  uint32_t delay_hops = 0;            // extra hops on the primary copy
  uint32_t duplicate_delay_hops = 0;  // extra hops on the duplicate copy
};

/// Pure function of its arguments — see the statelessness discussion above.
/// `channel` is the protocol-local message kind (kind & kLocalKindMask), the
/// per-message discriminator that separates e.g. a broadcast and a reply
/// crossing the same link in the same instant.
LinkFate DecideLinkFate(const FaultSpec& spec, HostId from, HostId to,
                        SimTime send_time, uint32_t channel);

/// Stateless byzantine membership: hash(seed, h) < byzantine_fraction.
bool IsByzantineHost(const FaultSpec& spec, HostId h);

/// Protocol-aware message corruption. Implementations rewrite `msg` in
/// place (it is the interposer's private copy) and return false to suppress
/// the delivery entirely. `msg->body` may be shared with other in-flight
/// deliveries — mutators must install a fresh body, never mutate through
/// the shared reference.
class ByzantineMutator {
 public:
  virtual ~ByzantineMutator() = default;
  virtual bool MutateFromByzantine(HostId src, Message* msg) = 0;
};

/// HostProgram shim slotted between the simulator and a protocol (as the
/// attached program or a query lane's program). Messages from byzantine senders are
/// copied, passed through the mutator, and forwarded (or suppressed);
/// everything else is transparent. The query's own hq is always protected:
/// a byzantine headquarters makes every answer trivially invalid, which is
/// not an interesting point on the degradation surface.
class ByzantineInterposer : public HostProgram {
 public:
  /// `spec`, `mutator`, and `inner` must outlive the interposer.
  ByzantineInterposer(const FaultSpec* spec, ByzantineMutator* mutator,
                      HostProgram* inner, HostId protected_host)
      : spec_(spec),
        mutator_(mutator),
        inner_(inner),
        protected_host_(protected_host) {}

  void OnMessage(HostId self, const Message& msg) override;
  void OnTimer(HostId self, uint64_t timer_id) override {
    inner_->OnTimer(self, timer_id);
  }
  void OnNeighborFailure(HostId self, HostId failed) override {
    inner_->OnNeighborFailure(self, failed);
  }

 private:
  const FaultSpec* spec_;
  ByzantineMutator* mutator_;
  HostProgram* inner_;
  HostId protected_host_;
};

}  // namespace validity::sim

#endif  // VALIDITY_SIM_FAULT_H_
