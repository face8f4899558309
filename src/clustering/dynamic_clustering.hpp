// DynamicClustering — correlation clustering maintained under topology
// changes on top of core::CascadeEngine, the dynamic MIS every derived
// structure runs on.
//
// A node's cluster is a pure local function of its own MIS membership and
// its neighbors' memberships/priorities, so after each update only the
// changed nodes, their neighbors, and the endpoints of the changed edge need
// reassignment — expected O(Δ) work per change, with the clustering as
// history independent as the underlying MIS (paper §1.1: direct application
// of the dynamic MIS as a dynamic 3-approximate correlation clustering).
#pragma once

#include <cstdint>
#include <vector>

#include "clustering/correlation.hpp"
#include "core/cascade_engine.hpp"

namespace dmis::clustering {

class DynamicClustering {
 public:
  explicit DynamicClustering(std::uint64_t seed) : mis_(seed) {}

  NodeId add_node(const std::vector<NodeId>& neighbors = {});
  void add_edge(NodeId u, NodeId v);
  void remove_edge(NodeId u, NodeId v);
  void remove_node(NodeId v);

  /// The pivot (cluster id) of a live node.
  [[nodiscard]] NodeId cluster_of(NodeId v) const {
    DMIS_ASSERT(mis_.graph().has_node(v));
    return cluster_[v];
  }

  [[nodiscard]] const std::vector<NodeId>& assignment() const noexcept {
    return cluster_;
  }
  [[nodiscard]] std::uint64_t cost() const {
    return correlation_cost(mis_.graph(), cluster_);
  }
  [[nodiscard]] const core::CascadeEngine& mis() const noexcept { return mis_; }
  [[nodiscard]] const graph::DynamicGraph& graph() const { return mis_.graph(); }

  /// Nodes whose cluster was reassigned by the last update (after dedup).
  [[nodiscard]] std::uint64_t last_reassigned() const noexcept {
    return last_reassigned_;
  }

  /// Abort if the maintained assignment differs from a fresh pivot
  /// assignment of the current graph.
  void verify() const;

 private:
  /// Recompute assignments for `seeds`, their neighbors, and every node
  /// changed by the MIS update (plus those nodes' neighbors).
  void refresh(std::vector<NodeId> seeds);
  [[nodiscard]] NodeId compute_cluster(NodeId v) const;

  core::CascadeEngine mis_;
  std::vector<NodeId> cluster_;
  std::uint64_t last_reassigned_ = 0;
};

}  // namespace dmis::clustering
