#include "clustering/dynamic_clustering.hpp"

#include <algorithm>

namespace dmis::clustering {

NodeId DynamicClustering::compute_cluster(NodeId v) const {
  if (mis_.in_mis(v)) return v;
  NodeId pivot = graph::kInvalidNode;
  const auto& priorities = mis_.priorities();
  for (const NodeId u : mis_.graph().neighbors(v)) {
    if (!mis_.in_mis(u)) continue;
    if (pivot == graph::kInvalidNode || priorities.before(u, pivot)) pivot = u;
  }
  DMIS_ASSERT_MSG(pivot != graph::kInvalidNode, "maximality violated");
  return pivot;
}

void DynamicClustering::refresh(std::vector<NodeId> seeds) {
  for (const NodeId v : mis_.last_report().changed) seeds.push_back(v);
  std::vector<NodeId> affected;
  for (const NodeId v : seeds) {
    if (!mis_.graph().has_node(v)) continue;
    affected.push_back(v);
    for (const NodeId u : mis_.graph().neighbors(v)) affected.push_back(u);
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());

  cluster_.resize(mis_.graph().id_bound(), graph::kInvalidNode);
  last_reassigned_ = 0;
  for (const NodeId v : affected) {
    const NodeId next = compute_cluster(v);
    if (cluster_[v] != next) {
      cluster_[v] = next;
      ++last_reassigned_;
    }
  }
}

NodeId DynamicClustering::add_node(const std::vector<NodeId>& neighbors) {
  const NodeId v = mis_.add_node(neighbors);
  refresh({v});
  return v;
}

void DynamicClustering::add_edge(NodeId u, NodeId v) {
  mis_.add_edge(u, v);
  refresh({u, v});
}

void DynamicClustering::remove_edge(NodeId u, NodeId v) {
  mis_.remove_edge(u, v);
  refresh({u, v});
}

void DynamicClustering::remove_node(NodeId v) {
  // The departed node's neighbors may have been clustered to it.
  const auto nb = mis_.graph().neighbors(v);
  std::vector<NodeId> seeds(nb.begin(), nb.end());
  mis_.remove_node(v);
  if (v < cluster_.size()) cluster_[v] = graph::kInvalidNode;
  refresh(std::move(seeds));
}

void DynamicClustering::verify() const {
  const std::vector<NodeId> fresh =
      pivot_assignment(mis_.graph(), mis_.priorities(), mis_.membership());
  for (const NodeId v : mis_.graph().nodes())
    DMIS_ASSERT_MSG(cluster_[v] == fresh[v],
                    "incremental cluster assignment diverged");
}

}  // namespace dmis::clustering
