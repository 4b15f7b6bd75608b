#include "sim/session.h"

namespace validity::sim {

SimulatorSession::SimulatorSession(topology::Topology topology,
                                   SimOptions options)
    : topo_(topology), sim_(topo_, options) {}

SimulatorSession::SimulatorSession(const topology::Graph* graph,
                                   SimOptions options)
    : SimulatorSession(topology::Topology::FromGraph(graph), options) {}

void SimulatorSession::Reset() {
  ++epoch_;
  sim_.Reset();
}

std::unique_ptr<HostProgram> SimulatorSession::TakeParkedProgram(
    uint32_t key) {
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->first == key) {
      std::unique_ptr<HostProgram> program = std::move(it->second);
      parked_.erase(it);
      return program;
    }
  }
  return nullptr;
}

void SimulatorSession::ParkProgram(uint32_t key,
                                   std::unique_ptr<HostProgram> program) {
  VALIDITY_DCHECK(program != nullptr);
  parked_.emplace_back(key, std::move(program));
}

SessionPool::SessionPool(topology::Topology topology, SimOptions options)
    : topo_(topology), options_(options) {}

SessionPool::SessionPool(const topology::Graph* graph, SimOptions options)
    : SessionPool(topology::Topology::FromGraph(graph), options) {}

SimulatorSession* SessionPool::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    SimulatorSession* lane = free_.back();
    free_.pop_back();
    return lane;
  }
  lanes_.push_back(std::make_unique<SimulatorSession>(topo_, options_));
  return lanes_.back().get();
}

void SessionPool::Release(SimulatorSession* session) {
  VALIDITY_DCHECK(session != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(session);
}

size_t SessionPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

}  // namespace validity::sim
