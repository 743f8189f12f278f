// Discrete random variable metadata.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fastbns {

struct Variable {
  std::string name;
  std::int32_t cardinality = 2;
  /// Optional state labels; when empty, states are "s0".."s{k-1}".
  std::vector<std::string> states;

  [[nodiscard]] std::string state_name(std::int32_t state) const {
    if (static_cast<std::size_t>(state) < states.size()) return states[state];
    std::string name = "s";
    name += std::to_string(state);
    return name;
  }
};

}  // namespace fastbns
