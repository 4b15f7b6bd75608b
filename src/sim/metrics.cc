#include "sim/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace validity::sim {

void Metrics::RecordSend(SimTime t, size_t bytes) {
  ++messages_sent_;
  bytes_sent_ += bytes;
  last_send_time_ = std::max(last_send_time_, t);
  VALIDITY_DCHECK(t >= start_);
  size_t tick = static_cast<size_t>(std::floor(t - start_));
  if (sends_per_tick_.size() <= tick) {
    // Generous geometric headroom: the per-tick series must not reallocate
    // once a run is warmed up (the send path is allocation-free).
    if (sends_per_tick_.capacity() <= tick) {
      sends_per_tick_.reserve(std::max<size_t>(128, 2 * (tick + 1)));
    }
    sends_per_tick_.resize(tick + 1, 0);
  }
  ++sends_per_tick_[tick];
}

uint64_t Metrics::MaxProcessed() const {
  uint64_t max_count = 0;
  for (HostId h : touched_) {
    max_count = std::max(max_count, *counts_.Find(h));
  }
  return max_count;
}

Histogram Metrics::ComputationCostDistribution() const {
  Histogram h;
  int64_t zeros = static_cast<int64_t>(num_hosts_) -
                  static_cast<int64_t>(touched_.size());
  if (zeros > 0) h.Add(0, zeros);
  for (HostId host : touched_) {
    h.Add(static_cast<int64_t>(*counts_.Find(host)));
  }
  return h;
}

void Metrics::Reset(uint32_t num_hosts, SimTime start) {
  num_hosts_ = num_hosts;
  start_ = start;
  counts_.Reset(num_hosts);
  touched_.clear();
  sends_per_tick_.clear();
  messages_sent_ = 0;
  bytes_sent_ = 0;
  messages_delivered_ = 0;
  last_send_time_ = 0;
}

}  // namespace validity::sim
