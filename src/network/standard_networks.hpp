// Registry of the paper's benchmark networks (Table II).
//
// ALARM ships with its published 37-node / 46-edge topology (Beinlich et
// al. 1989) and standard cardinalities; its CPT *values* are synthesized
// from a fixed-seed Dirichlet because the original parameters are not
// redistributable here. The remaining Table II networks are generated
// analogs matched on node count, edge count and cardinality range, because
// PC-stable's cost profile depends on exactly those structural quantities.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "network/bayesian_network.hpp"

namespace fastbns {

struct NetworkSpec {
  std::string name;
  VarId num_nodes = 0;
  std::int64_t num_edges = 0;
  Count max_samples = 0;  ///< the sample budget Table II lists
  bool large_scale = false;
};

/// Table II, in paper order.
[[nodiscard]] const std::vector<NetworkSpec>& table_ii_specs();

/// The real ALARM topology with synthesized CPTs (deterministic).
[[nodiscard]] BayesianNetwork alarm_network();

/// Table II analog by lowercase name ("alarm", "insurance", "hepar2",
/// "munin1", "diabetes", "link", "munin2", "munin3"). std::nullopt for
/// unknown names.
[[nodiscard]] std::optional<BayesianNetwork> benchmark_network(
    const std::string& name);

}  // namespace fastbns
