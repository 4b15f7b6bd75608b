#include "topology/topology.h"

#include <algorithm>

namespace validity::topology {

Topology Topology::FromGraph(const Graph* graph) {
  VALIDITY_CHECK(graph != nullptr);
  return Topology(Kind::kGraph, graph, 0, graph->num_hosts());
}

StatusOr<Topology> Topology::Grid(uint32_t side) {
  if (side == 0) return Status::InvalidArgument("empty grid");
  uint64_t n64 = static_cast<uint64_t>(side) * side;
  if (n64 > UINT32_MAX) return Status::InvalidArgument("grid too large");
  return Topology(Kind::kGrid, nullptr, side, static_cast<uint32_t>(n64));
}

StatusOr<Topology> Topology::Ring(uint32_t n) {
  if (n < 3) return Status::InvalidArgument("ring needs >= 3 hosts");
  return Topology(Kind::kRing, nullptr, n, n);
}

StatusOr<Topology> Topology::Torus(uint32_t side) {
  // side >= 3 keeps wrapped neighbors distinct (side 2 would fold the
  // east and west neighbor onto the same host).
  if (side < 3) return Status::InvalidArgument("torus needs side >= 3");
  uint64_t n64 = static_cast<uint64_t>(side) * side;
  if (n64 > UINT32_MAX) return Status::InvalidArgument("torus too large");
  return Topology(Kind::kTorus, nullptr, side, static_cast<uint32_t>(n64));
}

uint32_t Topology::Degree(HostId h) const {
  VALIDITY_DCHECK(h < num_hosts_);
  switch (kind_) {
    case Kind::kGraph:
      return graph_->Degree(h);
    case Kind::kGrid: {
      // Interior hosts have the full Moore neighborhood; each clamped axis
      // drops one of the three rows/columns.
      uint32_t r = h / side_;
      uint32_t c = h % side_;
      uint32_t rows = (r > 0 ? 1u : 0u) + 1u + (r + 1 < side_ ? 1u : 0u);
      uint32_t cols = (c > 0 ? 1u : 0u) + 1u + (c + 1 < side_ ? 1u : 0u);
      return rows * cols - 1;
    }
    case Kind::kRing:
      return 2;
    case Kind::kTorus:
      return kMaxImplicitDegree;
  }
  return 0;
}

uint32_t Topology::MaxDegree() const {
  switch (kind_) {
    case Kind::kGraph:
      return graph_->MaxDegree();
    case Kind::kGrid:
      if (side_ == 1) return 0;
      return side_ == 2 ? 3 : kMaxImplicitDegree;
    case Kind::kRing:
      return 2;
    case Kind::kTorus:
      return kMaxImplicitDegree;
  }
  return 0;
}

uint32_t Topology::CopyNeighbors(HostId h, HostId* out) const {
  VALIDITY_DCHECK(h < num_hosts_);
  switch (kind_) {
    case Kind::kGraph: {
      auto nbrs = graph_->Neighbors(h);
      // copy_n, not memcpy: for an isolated host both the list and the
      // caller's buffer may be null, which memcpy must not be given even
      // for zero bytes.
      std::copy_n(nbrs.data(), nbrs.size(), out);
      return static_cast<uint32_t>(nbrs.size());
    }
    case Kind::kGrid: {
      // Row-major sweep of the Moore square. This is exactly the order
      // MakeGrid's edge-insertion sequence leaves in each adjacency list:
      // the four cells processed before (r, c) contribute NW, N, NE, W in
      // that order, then (r, c) itself appends E, SW, S, SE.
      uint32_t r = h / side_;
      uint32_t c = h % side_;
      uint32_t n = 0;
      for (int32_t dr = -1; dr <= 1; ++dr) {
        int64_t rr = static_cast<int64_t>(r) + dr;
        if (rr < 0 || rr >= side_) continue;
        for (int32_t dc = -1; dc <= 1; ++dc) {
          if (dr == 0 && dc == 0) continue;
          int64_t cc = static_cast<int64_t>(c) + dc;
          if (cc < 0 || cc >= side_) continue;
          out[n++] = static_cast<HostId>(rr * side_ + cc);
        }
      }
      return n;
    }
    case Kind::kRing:
      // MakeCycle's insertion order: edge (h-1, h) lands before (h, h+1)
      // for every h except 0, whose first edge is (0, 1) and whose wrap
      // edge (n-1, 0) arrives last.
      if (h == 0) {
        out[0] = 1;
        out[1] = side_ - 1;
      } else {
        out[0] = h - 1;
        out[1] = (h + 1 == side_) ? 0 : h + 1;
      }
      return 2;
    case Kind::kTorus: {
      uint32_t r = h / side_;
      uint32_t c = h % side_;
      uint32_t up = (r == 0 ? side_ : r) - 1;
      uint32_t down = (r + 1 == side_) ? 0 : r + 1;
      uint32_t left = (c == 0 ? side_ : c) - 1;
      uint32_t right = (c + 1 == side_) ? 0 : c + 1;
      out[0] = up * side_ + left;
      out[1] = up * side_ + c;
      out[2] = up * side_ + right;
      out[3] = r * side_ + left;
      out[4] = r * side_ + right;
      out[5] = down * side_ + left;
      out[6] = down * side_ + c;
      out[7] = down * side_ + right;
      return kMaxImplicitDegree;
    }
  }
  return 0;
}

uint32_t Topology::ImplicitDiameter() const {
  switch (kind_) {
    case Kind::kGraph:
      VALIDITY_CHECK(false, "graph topologies estimate their diameter");
      return 0;
    case Kind::kGrid:
      // Moore moves are king moves: distance is the Chebyshev metric.
      return side_ - 1;
    case Kind::kRing:
      return side_ / 2;
    case Kind::kTorus:
      return side_ / 2;
  }
  return 0;
}

const char* Topology::KindName() const {
  switch (kind_) {
    case Kind::kGraph:
      return "graph";
    case Kind::kGrid:
      return "grid";
    case Kind::kRing:
      return "ring";
    case Kind::kTorus:
      return "torus";
  }
  return "?";
}

StatusOr<Graph> Topology::Materialize() const {
  Graph g(num_hosts_);
  HostId buf[kMaxImplicitDegree];
  for (HostId h = 0; h < num_hosts_; ++h) {
    const HostId* nbrs = buf;
    uint32_t count;
    if (kind_ == Kind::kGraph) {
      auto span = graph_->Neighbors(h);
      nbrs = span.data();
      count = static_cast<uint32_t>(span.size());
    } else {
      count = CopyNeighbors(h, buf);
    }
    for (uint32_t i = 0; i < count; ++i) {
      if (nbrs[i] > h) {
        if (Status st = g.AddEdge(h, nbrs[i]); !st.ok()) return st;
      }
    }
  }
  return g;
}

}  // namespace validity::topology
