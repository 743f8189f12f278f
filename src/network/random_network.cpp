#include "network/random_network.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace fastbns {

BayesianNetwork generate_random_network(const RandomNetworkConfig& config) {
  const VarId n = config.num_nodes;
  if (n <= 0) throw std::invalid_argument("num_nodes must be positive");

  // Feasibility: node at position i (in topo order) can take up to
  // min(i, max_parents, window) parents.
  std::int64_t capacity = 0;
  for (VarId i = 0; i < n; ++i) {
    VarId pool = i;
    if (config.locality_window > 0) pool = std::min(pool, config.locality_window);
    capacity += std::min<VarId>(pool, config.max_parents);
  }
  if (config.num_edges > capacity) {
    throw std::invalid_argument(
        "generate_random_network: edge count exceeds capacity under "
        "max_parents/locality constraints");
  }

  Rng rng(config.seed);

  // Random topological order: position -> node id.
  std::vector<VarId> order(static_cast<std::size_t>(n));
  for (VarId i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);

  // Sample parent counts by repeatedly assigning edges to random positions
  // with remaining capacity, then pick the actual parents.
  std::vector<std::int32_t> parent_count(static_cast<std::size_t>(n), 0);
  std::vector<VarId> eligible;  // positions that can still take a parent
  auto position_capacity = [&](VarId pos) {
    VarId pool = pos;
    if (config.locality_window > 0) pool = std::min(pool, config.locality_window);
    return std::min<VarId>(pool, config.max_parents);
  };
  for (std::int64_t e = 0; e < config.num_edges; ++e) {
    eligible.clear();
    for (VarId pos = 0; pos < n; ++pos) {
      if (parent_count[pos] < position_capacity(pos)) eligible.push_back(pos);
    }
    const VarId pos = eligible[rng.next_below(eligible.size())];
    ++parent_count[pos];
  }

  Dag dag(n);
  std::vector<VarId> pool;
  for (VarId pos = 0; pos < n; ++pos) {
    if (parent_count[pos] == 0) continue;
    pool.clear();
    const VarId window_start =
        config.locality_window > 0
            ? std::max<VarId>(0, pos - config.locality_window)
            : 0;
    for (VarId p = window_start; p < pos; ++p) pool.push_back(order[p]);
    rng.shuffle(pool);
    for (std::int32_t k = 0; k < parent_count[pos]; ++k) {
      dag.add_edge_unchecked(pool[k], order[pos]);
    }
  }

  std::vector<Variable> variables;
  variables.reserve(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    Variable variable;
    variable.name = "V";
    variable.name += std::to_string(v);
    variable.cardinality = static_cast<std::int32_t>(rng.uniform_int(
        config.min_cardinality, config.max_cardinality));
    variables.push_back(std::move(variable));
  }

  BayesianNetwork network(std::move(variables), std::move(dag));
  network.randomize_cpts(rng, config.dirichlet_alpha);
  return network;
}

}  // namespace fastbns
