// Cost accounting for protocol runs (paper §6.3).
//
//  - Communication cost: number of messages sent. Under the wireless medium
//    a transmission to all neighbors counts once; point-to-point counts one
//    per destination.
//  - Computation cost: per-host count of messages processed (received).
//    The protocol-level computation cost is the max over hosts.
//  - Time cost: tracked by the protocols as the result-declaration time;
//    the metrics also record the last send time and the per-tick message
//    series used by Fig. 13(b).
//
// Per-host tallies are paged (common/paged_state.h): a host that processed
// nothing occupies no storage, so *constructing* a Metrics for a
// million-host network is O(1) and a query is charged only for the hosts it
// touched. Hosts that processed at least one message are additionally
// tracked in a dirty list, so Reset() — the inter-query session path — and
// the per-host summaries cost O(hosts touched + ticks elapsed), not
// O(network).

#ifndef VALIDITY_SIM_METRICS_H_
#define VALIDITY_SIM_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "common/paged_state.h"
#include "common/types.h"

namespace validity::sim {

class Metrics {
 public:
  explicit Metrics(uint32_t num_hosts) : num_hosts_(num_hosts) {
    counts_.Reset(num_hosts);
  }

  /// Records a transmission of `bytes` at time `t` (one call per message for
  /// point-to-point; one call per wireless broadcast).
  void RecordSend(SimTime t, size_t bytes);

  /// Records that host `h` processed one delivered message. Inline: it runs
  /// once per delivery, inside the simulator's batch loop.
  void RecordProcessed(HostId h) {
    VALIDITY_DCHECK(h < num_hosts_);
    uint64_t& count = counts_.Touch(h);
    if (count++ == 0) touched_.push_back(h);
    ++messages_delivered_;
  }

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  SimTime last_send_time() const { return last_send_time_; }

  /// Messages processed by host `h` (0 for hosts whose tally page was never
  /// materialized).
  uint64_t ProcessedBy(HostId h) const {
    const uint64_t* count = counts_.Find(h);
    return count == nullptr ? 0 : *count;
  }

  /// Max messages processed by any single host = protocol computation cost.
  /// O(hosts that processed anything).
  uint64_t MaxProcessed() const;

  /// Histogram: processed-message count -> number of hosts (Fig. 12).
  /// Hosts that processed nothing contribute to the zero bucket.
  Histogram ComputationCostDistribution() const;

  /// Messages sent during tick [start + i, start + i + 1) of the run
  /// (Fig. 13(b)), anchored at the start Reset() gave: a query issued late
  /// on a long timeline stores no leading zeros.
  const std::vector<uint64_t>& SendsPerTick() const { return sends_per_tick_; }

  /// Grows the accounted host population when hosts join (tally pages
  /// materialize on demand).
  void OnHostAdded() { ++num_hosts_; }

  /// Zeroes every counter for a fresh run over `num_hosts` hosts (dropping
  /// hosts joined since construction) that starts at `start`. O(ticks
  /// elapsed) plus an O(1) page epoch bump; storage capacity is retained.
  void Reset(uint32_t num_hosts, SimTime start = 0.0);

  /// Bytes of tally storage currently resident (the paged counters plus the
  /// dirty list and tick series).
  size_t ResidentBytes() const {
    return counts_.ResidentBytes() + touched_.capacity() * sizeof(HostId) +
           sends_per_tick_.capacity() * sizeof(uint64_t);
  }

 private:
  uint64_t messages_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  SimTime last_send_time_ = 0;
  /// Origin of the tick series.
  SimTime start_ = 0;
  uint32_t num_hosts_ = 0;
  /// Per-host processed tallies, materialized on first touch.
  PagedStates<uint64_t> counts_;
  /// Hosts with a nonzero tally, each exactly once (pushed on the 0 -> 1
  /// transition).
  std::vector<HostId> touched_;
  std::vector<uint64_t> sends_per_tick_;
};

}  // namespace validity::sim

#endif  // VALIDITY_SIM_METRICS_H_
