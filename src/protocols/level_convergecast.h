// The level convergecast behind the paper's two best-effort baselines
// (§4.4): SPANNINGTREE and DIRECTEDACYCLICGRAPH are one algorithm that
// differs only in its report policy (SpanningTreeProtocol and DagProtocol,
// at the end of this file).
//
// Broadcast: hq floods the query. A host activates on the first copy it
// receives, at depth = sender's depth + 1, adopting the sender as its first
// parent, and forwards the query once to every neighbor. Copies from one
// level up that arrive later in the same wave make further parents, up to
// the policy's cap (level discipline: every parent sits at depth d - 1).
//
// Convergecast: every host holds a partial aggregate seeded with its own
// value, folds in the reports addressed to it, and reports once to all its
// parents. A host failure during convergecast drops whatever it had
// collected that no other parent also holds — with one parent, its whole
// subtree (Theorem 4.4), which Figs. 7-9 quantify.
//
// Pacing (TreePacing):
//  - kSlotted (default, TAG/paper-faithful): a host at depth d holds its
//    partial aggregate until its slot (2*D-hat - d - 0.5) * delta and then
//    reports; child reports land exactly at the parent's slot and are
//    folded in first. Data therefore sits in interior hosts for most of the
//    query window — exactly the exposure that makes trees collapse under
//    churn in Figs. 7-9. The root declares at the horizon.
//  - kEager (ablation): hosts discover their children (each broadcast
//    forward names its first parent, costing nothing extra; each further
//    parent gets one kRegister), report as soon as every live child
//    reported (heartbeats prune dead children), and fall back to the slot
//    deadline. The root declares as soon as its own children have all
//    reported.
//
// The report policy (TreeReport, DagReport below) is a compile-time
// parameter: it supplies the partial, the parent set and the report's wire
// form, and every call into it is static.

#ifndef VALIDITY_PROTOCOLS_LEVEL_CONVERGECAST_H_
#define VALIDITY_PROTOCOLS_LEVEL_CONVERGECAST_H_

#include <algorithm>
#include <optional>
#include <string_view>
#include <vector>

#include "protocols/protocol.h"

namespace validity::protocols {

enum class TreePacing { kSlotted, kEager };

struct SpanningTreeOptions {
  TreePacing pacing = TreePacing::kSlotted;
};

struct DagOptions {
  /// Maximum number of parents per host (paper evaluates k = 2 and k = 3).
  uint32_t max_parents = 2;
  TreePacing pacing = TreePacing::kSlotted;
};

/// A parent set of at most one host, stored inline (kInvalidHost = empty)
/// with the slice of std::vector's interface the convergecast uses.
struct SingleParent {
  HostId id = kInvalidHost;
  size_t size() const { return id == kInvalidHost ? 0 : 1; }
  void push_back(HostId parent) { id = parent; }
  const HostId* begin() const { return &id; }
  const HostId* end() const { return &id + size(); }
};

/// SPANNINGTREE's report policy: one parent, a duplicate-sensitive
/// ScalarPartial carried inline. No body is allocated anywhere.
struct TreeReport {
  using Options = SpanningTreeOptions;
  using Parents = SingleParent;
  using Partial = ScalarPartial;
  static constexpr std::string_view kName = "spanning-tree";

  static uint32_t MaxParents(const Options&) { return 1; }
  template <class Core>
  static void Seed(const Core& core, HostId self, Partial& partial) {
    partial.AddHost(core.HostValue(self));
  }
  static sim::Message Make(const Partial& partial, const Parents& parents) {
    sim::Message out;
    // Wire size excludes the addressee field: the report payload proper is
    // the fixed 32-byte ScalarPartial record.
    out.StoreInline(TreeReportPayload{partial, parents.id},
                    ScalarPartial::kWireBytes);
    return out;
  }
  static bool AddressedTo(const sim::Message& report, HostId self) {
    return report.LoadInline<TreeReportPayload>().to_parent == self;
  }
  static void Fold(Partial& partial, const sim::Message& report) {
    partial.Merge(report.LoadInline<TreeReportPayload>().partial);
  }
  static double Extract(const Partial& partial, AggregateKind kind) {
    return partial.Extract(kind);
  }
  void OnReset() {}
};

/// DIRECTEDACYCLICGRAPH's report policy: up to k parents, a duplicate-
/// insensitive PartialAggregate in a pooled body that also carries the
/// addressee list.
struct DagReport {
  using Options = DagOptions;
  using Parents = std::vector<HostId>;
  using Partial = std::optional<PartialAggregate>;
  static constexpr std::string_view kName = "dag";

  /// Pooled report body. Recycled bodies keep the sketch words' and parent
  /// vector's capacity, so steady-state reports allocate nothing.
  struct Body : sim::MessageBody {
    Body() = default;
    PartialAggregate agg;
    std::vector<HostId> to_parents;  // addressees (wireless filtering)
    size_t SizeBytes() const override {
      return agg.SizeBytes() + to_parents.size() * sizeof(HostId);
    }
  };

  static uint32_t MaxParents(const Options& options) {
    return options.max_parents;
  }
  template <class Core>
  static void Seed(const Core& core, HostId self, Partial& partial) {
    partial = core.InitialAggregate(self);
  }
  sim::Message Make(const Partial& partial, const Parents& parents) {
    Body* body = pool.Acquire();
    body->agg = *partial;
    body->to_parents = parents;
    sim::Message out;
    out.body = sim::BodyRef(body);
    return out;
  }
  static bool AddressedTo(const sim::Message& report, HostId self) {
    const auto& to = static_cast<const Body&>(*report.body).to_parents;
    return std::find(to.begin(), to.end(), self) != to.end();
  }
  static void Fold(Partial& partial, const sim::Message& report) {
    // Duplicate-insensitive: a value may arrive along several routes.
    partial->CombineFrom(static_cast<const Body&>(*report.body).agg);
  }
  static double Extract(const Partial& partial, AggregateKind) {
    return partial->Estimate();
  }
  void OnReset() { pool.ResetRecycleOrder(); }

  sim::BodyPool<Body> pool;
};

template <class Report>
class LevelConvergecast : public ProtocolBase {
 public:
  using Options = typename Report::Options;

  LevelConvergecast(sim::Simulator* sim, QueryContext ctx, Options options)
      : ProtocolBase(sim, std::move(ctx)), options_(options) {}

  void Start(HostId hq) override {
    VALIDITY_CHECK(sim_->IsAlive(hq), "querying host must be alive");
    hq_ = hq;
    start_time_ = sim_->Now();
    states_.Reset(sim_->num_hosts());
    Activate(hq, kInvalidHost, 0);
    // Root declaration: at the horizon with whatever has been folded in
    // (kEager may declare earlier through MaybeCompleteEager).
    ScheduleLocalTimer(hq, Horizon(), kTimerDeclare);
  }

  void OnMessage(HostId self, const sim::Message& msg) override {
    uint32_t local = 0;
    if (!DecodeKind(msg.kind, &local)) return;
    HostState* stp = states_.Find(self);

    if (local == kBroadcast) {
      const auto in = msg.LoadInline<BroadcastPayload>();
      if (stp == nullptr || !stp->active) {
        if (sim_->Now() >= Horizon()) return;
        Activate(self, msg.src, in.hop + 1);
        return;
      }
      HostState& st = *stp;
      // Additional parent: a same-wave copy from one level up, adopted until
      // the cap is reached (copies from the previous wave all land at this
      // same instant, before any report could have been sent).
      if (!st.sent_up && in.hop == st.depth - 1 &&
          st.parents.size() < Report::MaxParents(options_) &&
          std::find(st.parents.begin(), st.parents.end(), msg.src) ==
              st.parents.end()) {
        AdoptExtraParent(self, st, msg.src);
      }
      // Child registration with the first parent (kEager only; kSlotted
      // forwards carry kInvalidHost here).
      if (in.parent == self) st.pending_children.push_back(msg.src);
      return;
    }

    if (local == kRegister) {
      if (msg.LoadInline<RegisterPayload>().to_parent != self) return;
      if (stp == nullptr || !stp->active || stp->sent_up) return;
      stp->pending_children.push_back(msg.src);
      return;
    }

    if (local == kReport) {
      if (!Report::AddressedTo(msg, self)) return;  // overheard (wireless)
      if (stp == nullptr || !stp->active || stp->sent_up) return;
      HostState& st = *stp;
      Report::Fold(st.partial, msg);
      if (self == hq_) result_.last_update_at = sim_->Now();
      auto it = std::find(st.pending_children.begin(),
                          st.pending_children.end(), msg.src);
      if (it != st.pending_children.end()) st.pending_children.erase(it);
      if (Eager()) MaybeCompleteEager(self);
    }
  }

  void OnNeighborFailure(HostId self, HostId failed) override {
    if (!Eager()) return;
    HostState* stp = states_.Find(self);
    if (stp == nullptr) return;
    HostState& st = *stp;
    if (!st.active || st.sent_up) return;
    // A failed child will never report; stop waiting for it. (What only it
    // carried is simply lost — the best-effort behaviour the paper
    // critiques.)
    auto it = std::find(st.pending_children.begin(),
                        st.pending_children.end(), failed);
    if (it != st.pending_children.end()) {
      st.pending_children.erase(it);
      MaybeCompleteEager(self);
    }
  }

  /// Session reuse: rebind context + options and re-arm, keeping the warm
  /// state pages and any report body pool (see ProtocolBase).
  void ResetForQuery(QueryContext ctx, const Options& options) {
    options_ = options;
    ProtocolBase::ResetForQuery(std::move(ctx));
  }
  std::string_view name() const override { return Report::kName; }
  size_t ResidentStateBytes() const override {
    return states_.ResidentBytes();
  }

  /// Level of `h` in the broadcast wave (-1 if never activated).
  int32_t DepthOf(HostId h) const {
    const HostState* st = ActiveState(h);
    return st == nullptr ? -1 : st->depth;
  }

  /// kEager: children become known this many delta after activation (own
  /// forward out: +delta; children's forwards or registrations back:
  /// +2*delta; +0.5 to order the timer after same-instant deliveries).
  static constexpr double kChildDiscoveryDelay = 2.5;

 protected:
  struct HostState {
    bool active = false;
    bool children_known = false;
    bool sent_up = false;
    int32_t depth = 0;
    typename Report::Parents parents;
    std::vector<HostId> pending_children;
    typename Report::Partial partial;
  };

  /// `h`'s record, or nullptr if `h` never activated.
  const HostState* ActiveState(HostId h) const {
    const HostState* st = states_.Find(h);
    return st == nullptr || !st->active ? nullptr : st;
  }

 private:
  friend Report;  // Seed reads the host's value / initial aggregate

  enum LocalKind : uint32_t { kBroadcast = 1, kReport = 2, kRegister = 3 };
  enum LocalTimer : uint32_t {
    kTimerChildrenKnown = 1,
    kTimerSlot = 2,
    kTimerSendUp = 3,
    kTimerDeclare = 4,
  };

  /// Broadcast forward (8 wire bytes). `parent` is the sender's first
  /// parent under kEager — the forward doubles as its child registration —
  /// and kInvalidHost under kSlotted.
  struct BroadcastPayload {
    int32_t hop = 0;  // sender's depth
    HostId parent = kInvalidHost;
  };
  struct RegisterPayload {
    HostId to_parent = kInvalidHost;  // addressee (wireless filtering)
  };

  bool Eager() const { return options_.pacing == TreePacing::kEager; }

  /// The slot instant at which a depth-d host reports upward.
  SimTime SlotTime(int32_t depth, SimTime activation_time) const {
    SimTime delta = sim_->options().delta;
    // Depth-d slot: child reports (depth d+1, one slot earlier) arrive
    // exactly at this instant; SendUp requeues itself behind them. The
    // ladder is sound for D-hat >= depth_max + 1.
    SimTime slot = start_time_ + (2.0 * ctx_.d_hat -
                                  static_cast<double>(depth) - 0.5) *
                                     delta;
    // Late activation (churn-stretched paths): never report before having
    // existed for a moment.
    return std::max(slot, activation_time + 0.5 * delta);
  }

  void Activate(HostId self, HostId first_parent, int32_t depth) {
    HostState& st = states_.Touch(self);
    st.active = true;
    st.depth = depth;
    if (first_parent != kInvalidHost) st.parents.push_back(first_parent);
    Report::Seed(*this, self, st.partial);

    // Forward the query to every neighbor (including the first parent:
    // under kEager the forward doubles as the child registration).
    sim::Message out;
    out.kind = MakeKind(kBroadcast);
    out.StoreInline(
        BroadcastPayload{depth, Eager() ? first_parent : kInvalidHost},
        sizeof(int32_t) + sizeof(HostId));
    sim_->SendToNeighbors(self, std::move(out));

    if (Eager()) {
      ScheduleLocalTimer(
          self, sim_->Now() + kChildDiscoveryDelay * sim_->options().delta,
          kTimerChildrenKnown);
    }
    // The report slot. In kEager it acts as a deadline fallback; in
    // kSlotted it is the only send trigger. The handler requeues at the
    // same instant so that child reports delivered at this exact time are
    // folded in first.
    ScheduleLocalTimer(self, SlotTime(depth, sim_->Now()), kTimerSlot);
  }

  void OnLocalTimer(HostId self, uint32_t local_id) override {
    switch (local_id) {
      case kTimerChildrenKnown:
        states_.Find(self)->children_known = true;
        MaybeCompleteEager(self);
        break;
      case kTimerSlot:
        ScheduleLocalTimer(self, sim_->Now(), kTimerSendUp);
        break;
      case kTimerSendUp:
        SendUp(self);
        break;
      case kTimerDeclare:
        Declare(self);
        break;
    }
  }

  void OnReset() override { report_.OnReset(); }

  void AdoptExtraParent(HostId self, HostState& st, HostId parent) {
    st.parents.push_back(parent);
    if (!Eager()) return;
    // Tell the extra parent it has a child to wait for.
    sim::Message out;
    out.kind = MakeKind(kRegister);
    out.StoreInline(RegisterPayload{parent}, sizeof(HostId));
    if (sim_->options().medium == sim::MediumKind::kWireless) {
      sim_->SendToNeighbors(self, std::move(out));
    } else {
      sim_->SendTo(self, parent, std::move(out));
    }
  }

  void MaybeCompleteEager(HostId self) {
    HostState& st = *states_.Find(self);
    if (!st.active || st.sent_up || !st.children_known) return;
    if (!st.pending_children.empty()) return;
    SendUp(self);
  }

  void SendUp(HostId self) {
    HostState& st = *states_.Find(self);
    if (!st.active || st.sent_up) return;
    st.sent_up = true;
    if (self == hq_) {
      if (Eager()) Declare(self);
      return;  // kSlotted: the root declares at the horizon
    }
    sim::Message out = report_.Make(st.partial, st.parents);
    out.kind = MakeKind(kReport);
    if (sim_->options().medium == sim::MediumKind::kWireless) {
      // One radio transmission reaches every parent; only addressees fold
      // it in (paper §6.6: on Grid the DAG convergecast costs the same as
      // the tree's, whatever k is).
      sim_->SendToNeighbors(self, std::move(out));
      return;
    }
    // A dead parent's share is lost; with none alive the host is orphaned.
    for (HostId p : st.parents) {
      if (sim_->IsAlive(p)) sim_->SendTo(self, p, out);
    }
  }

  void Declare(HostId self) {
    if (result_.declared) return;
    result_.value =
        Report::Extract(states_.Find(self)->partial, ctx_.aggregate);
    result_.declared_at = sim_->Now();
    result_.declared = true;
  }

  Options options_;
  PagedStates<HostState> states_;
  [[no_unique_address]] Report report_;
};

/// SPANNINGTREE: one parent per host, the sender of the first query copy
/// received (TAG-style), and a duplicate-sensitive ScalarPartial reported
/// inline along the unique tree path. A host failure during convergecast
/// silently drops its whole collected subtree: the protocol can be
/// arbitrarily invalid (Theorem 4.4).
class SpanningTreeProtocol : public LevelConvergecast<TreeReport> {
 public:
  SpanningTreeProtocol(sim::Simulator* sim, QueryContext ctx,
                       SpanningTreeOptions options = {})
      : LevelConvergecast(sim, std::move(ctx), options) {}

  /// Tree parent of `h` (kInvalidHost for hq and never-activated hosts).
  HostId ParentOf(HostId h) const {
    const HostState* st = ActiveState(h);
    return st == nullptr ? kInvalidHost : st->parents.id;
  }
};

/// DIRECTEDACYCLICGRAPH: up to k parents per host, all at depth d - 1.
/// Reports go to *all* adopted parents, so a single parent failure no
/// longer severs a subtree. Because a value can now reach hq along multiple
/// routes, the combine function must be duplicate-insensitive: the
/// implementation follows the paper (§6: "Our implementation of
/// DIRECTEDACYCLICGRAPH uses the distributed count and sum operators"),
/// i.e. the same FM sketches that WILDFIRE uses (or exact union combiners
/// in tests). Under kEager each parent beyond the first costs one extra
/// kRegister message.
class DagProtocol : public LevelConvergecast<DagReport> {
 public:
  DagProtocol(sim::Simulator* sim, QueryContext ctx, DagOptions options = {})
      : LevelConvergecast(sim, std::move(ctx), options) {
    VALIDITY_CHECK(options.max_parents >= 1, "DAG needs k >= 1");
  }

  /// Parents adopted by `h` (empty if never activated).
  const std::vector<HostId>& ParentsOf(HostId h) const {
    const HostState* st = ActiveState(h);
    return st == nullptr ? empty_ : st->parents;
  }

 private:
  std::vector<HostId> empty_;
};

}  // namespace validity::protocols

#endif  // VALIDITY_PROTOCOLS_LEVEL_CONVERGECAST_H_
