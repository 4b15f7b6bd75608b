#include "sim/fault.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "common/rng.h"

namespace validity::sim {

namespace {

// Distinct stream constants keep the link-fate and byzantine-membership
// hash families independent even under the same spec seed.
constexpr uint64_t kLinkStream = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kByzantineStream = 0xbf58476d1ce4e5b9ULL;

// 53-bit mantissa uniform in [0, 1) — the same mapping Rng::NextDouble uses,
// applied to a hash word instead of a generator step.
inline double ToUnit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

const char* ByzantineModeName(ByzantineMode mode) {
  switch (mode) {
    case ByzantineMode::kNone:
      return "none";
    case ByzantineMode::kInflate:
      return "inflate";
    case ByzantineMode::kDeadenReplies:
      return "deaden";
    case ByzantineMode::kStaleReplay:
      return "stale-replay";
  }
  return "unknown";
}

Status FaultSpec::Validate() const {
  const std::pair<const char*, double> rates[] = {
      {"drop_rate", drop_rate},
      {"duplicate_rate", duplicate_rate},
      {"delay_rate", delay_rate},
      {"byzantine_fraction", byzantine_fraction}};
  for (const auto& [name, rate] : rates) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      return Status::InvalidArgument(std::string("FaultSpec.") + name +
                                     " must be in [0, 1]");
    }
  }
  return Status::Ok();
}

std::string FaultSpecLabel(const FaultSpec& spec) {
  if (!spec.enabled()) return "none";
  char buf[32];
  std::string out;
  auto append = [&out, &buf](const char* name, double rate) {
    std::snprintf(buf, sizeof(buf), "%s=%.2f", name, rate);
    if (!out.empty()) out += '+';
    out += buf;
  };
  if (spec.drop_rate > 0) append("drop", spec.drop_rate);
  if (spec.duplicate_rate > 0) append("dup", spec.duplicate_rate);
  if (spec.delay_rate > 0) append("delay", spec.delay_rate);
  if (spec.HasByzantine()) {
    std::snprintf(buf, sizeof(buf), "byz-%s=%.2f",
                  ByzantineModeName(spec.byzantine_mode),
                  spec.byzantine_fraction);
    if (!out.empty()) out += '+';
    out += buf;
  }
  return out;
}

LinkFate DecideLinkFate(const FaultSpec& spec, HostId from, HostId to,
                        SimTime send_time, uint32_t channel) {
  LinkFate fate;
  if (!spec.HasLinkFaults()) return fate;
  // Normalize -0.0 the way EventQueue's time keying does, then hash the
  // exact bit pattern: two sends at the same simulated instant hash alike,
  // sends one ULP apart do not.
  SimTime t = send_time + 0.0;
  uint64_t t_bits;
  std::memcpy(&t_bits, &t, sizeof(t_bits));
  uint64_t h = Mix64(spec.seed ^ kLinkStream);
  h = Mix64(h ^ ((static_cast<uint64_t>(from) << 32) | to));
  h = Mix64(h ^ t_bits);
  h = Mix64(h ^ channel);
  // Fixed draw order regardless of which rates are active, so a given spec
  // maps every (link, instant, channel) to one fate unconditionally.
  uint64_t drop_draw = SplitMix64(&h);
  uint64_t delay_draw = SplitMix64(&h);
  uint64_t delay_hops_draw = SplitMix64(&h);
  uint64_t duplicate_draw = SplitMix64(&h);
  uint64_t duplicate_hops_draw = SplitMix64(&h);
  if (ToUnit(drop_draw) < spec.drop_rate) {
    fate.drop = true;
    return fate;
  }
  if (spec.max_delay_hops > 0 && ToUnit(delay_draw) < spec.delay_rate) {
    fate.delay_hops = 1 + static_cast<uint32_t>(
                              delay_hops_draw % spec.max_delay_hops);
  }
  if (ToUnit(duplicate_draw) < spec.duplicate_rate) {
    fate.duplicate = true;
    fate.duplicate_delay_hops =
        spec.max_delay_hops > 0
            ? static_cast<uint32_t>(duplicate_hops_draw %
                                    (spec.max_delay_hops + 1))
            : 0;
  }
  return fate;
}

bool IsByzantineHost(const FaultSpec& spec, HostId h) {
  if (!spec.HasByzantine()) return false;
  uint64_t w = Mix64(Mix64(spec.seed ^ kByzantineStream) ^ h);
  return ToUnit(w) < spec.byzantine_fraction;
}

void ByzantineInterposer::OnMessage(HostId self, const Message& msg) {
  if (__builtin_expect(
          msg.src != protected_host_ && IsByzantineHost(*spec_, msg.src), 0)) {
    Message corrupted = msg;  // copies the inline payload, shares the body
    if (!mutator_->MutateFromByzantine(msg.src, &corrupted)) return;
    inner_->OnMessage(self, corrupted);
    return;
  }
  inner_->OnMessage(self, msg);
}

}  // namespace validity::sim
