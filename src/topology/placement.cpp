#include "topology/placement.hpp"

#include <sstream>
#include <stdexcept>

namespace fastbns {

NumaPolicy numa_policy_from_string(std::string_view name) {
  if (name == "auto") return NumaPolicy::kAuto;
  if (name == "off") return NumaPolicy::kOff;
  if (name == "forced") return NumaPolicy::kForced;
  std::string message = "unknown NUMA policy \"" + std::string(name) +
                        "\"; known policies:";
  for (const std::string& known : list_numa_policies()) {
    message += ' ';
    message += known;
  }
  throw std::invalid_argument(message);
}

std::string_view to_string(NumaPolicy policy) noexcept {
  switch (policy) {
    case NumaPolicy::kAuto:
      return "auto";
    case NumaPolicy::kOff:
      return "off";
    case NumaPolicy::kForced:
      return "forced";
  }
  return "auto";
}

std::vector<std::string> list_numa_policies() {
  return {"auto", "off", "forced"};
}

ShardPlacement plan_shard_placement(NumaPolicy policy,
                                    std::int32_t shard_count,
                                    const NumaTopology& topology) {
  if (shard_count < 1) {
    throw std::invalid_argument(
        "plan_shard_placement: shard_count must be >= 1, got " +
        std::to_string(shard_count));
  }
  ShardPlacement placement;
  placement.topology = topology;
  placement.active =
      policy == NumaPolicy::kForced ||
      (policy == NumaPolicy::kAuto && topology.num_domains() > 1);
  placement.shard_domain.resize(static_cast<std::size_t>(shard_count));
  // Balanced contiguous blocks: shard s -> domain s * D / S. Contiguous
  // shard ids then map to contiguous domains, matching the contiguous
  // variable partition's compact id ranges.
  const auto domains = static_cast<std::int64_t>(topology.num_domains());
  for (std::int32_t s = 0; s < shard_count; ++s) {
    placement.shard_domain[static_cast<std::size_t>(s)] =
        static_cast<std::int32_t>(static_cast<std::int64_t>(s) * domains /
                                  shard_count);
  }
  return placement;
}

std::string ShardPlacement::describe() const {
  std::ostringstream out;
  out << (active ? "active" : "inactive") << ", " << topology.describe();
  // Render the block deal as shard ranges, one per domain that serves
  // any shard — compact at any shard count.
  const auto shards = static_cast<std::int32_t>(shard_domain.size());
  std::int32_t begin = 0;
  while (begin < shards) {
    std::int32_t end = begin;
    while (end < shards && shard_domain[static_cast<std::size_t>(end)] ==
                               shard_domain[static_cast<std::size_t>(begin)]) {
      ++end;
    }
    if (begin == 0) out << ", shards ";
    if (end == begin + 1) {
      out << begin;
    } else {
      out << '[' << begin << ',' << end << ')';
    }
    out << "->node" << shard_domain[static_cast<std::size_t>(begin)] << ' ';
    begin = end;
  }
  std::string text = out.str();
  if (!text.empty() && text.back() == ' ') text.pop_back();
  return text;
}

}  // namespace fastbns
