#include "network/bayesian_network.hpp"

#include <cassert>

namespace fastbns {

BayesianNetwork::BayesianNetwork(std::vector<Variable> variables, Dag dag)
    : variables_(std::move(variables)), dag_(std::move(dag)) {
  assert(static_cast<VarId>(variables_.size()) == dag_.num_nodes());
  init_uniform_cpts();
}

std::vector<std::string> BayesianNetwork::variable_names() const {
  std::vector<std::string> names;
  names.reserve(variables_.size());
  for (const auto& variable : variables_) names.push_back(variable.name);
  return names;
}

std::vector<std::int32_t> BayesianNetwork::cardinalities() const {
  std::vector<std::int32_t> cards;
  cards.reserve(variables_.size());
  for (const auto& variable : variables_) cards.push_back(variable.cardinality);
  return cards;
}

void BayesianNetwork::init_uniform_cpts() {
  const VarId n = dag_.num_nodes();
  cpts_.clear();
  cpts_.reserve(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    const auto& parents = dag_.parents(v);
    std::vector<std::int32_t> parent_cards;
    parent_cards.reserve(parents.size());
    for (const VarId parent : parents) {
      parent_cards.push_back(variables_[parent].cardinality);
    }
    Cpt cpt(v, variables_[v].cardinality, parents, std::move(parent_cards));
    const double uniform = 1.0 / variables_[v].cardinality;
    for (std::int64_t config = 0; config < cpt.num_parent_configs(); ++config) {
      for (std::int32_t state = 0; state < variables_[v].cardinality; ++state) {
        cpt.set_probability(config, state, uniform);
      }
    }
    cpts_.push_back(std::move(cpt));
  }
}

void BayesianNetwork::randomize_cpts(Rng& rng, double alpha) {
  for (auto& cpt : cpts_) cpt.randomize(rng, alpha);
}

bool BayesianNetwork::valid() const {
  if (static_cast<VarId>(variables_.size()) != dag_.num_nodes()) return false;
  if (static_cast<VarId>(cpts_.size()) != dag_.num_nodes()) return false;
  if (!dag_.is_acyclic()) return false;
  for (VarId v = 0; v < num_nodes(); ++v) {
    if (cpts_[v].variable() != v) return false;
    if (cpts_[v].cardinality() != variables_[v].cardinality) return false;
    if (cpts_[v].parents() != dag_.parents(v)) return false;
    if (!cpts_[v].rows_normalized()) return false;
  }
  return true;
}

VarId BayesianNetwork::index_of(const std::string& name) const {
  for (VarId v = 0; v < num_nodes(); ++v) {
    if (variables_[v].name == name) return v;
  }
  return kInvalidVar;
}

}  // namespace fastbns
