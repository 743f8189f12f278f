// Shard→domain placement: the policy knob and the assignment plan the
// sharded engine (and the structure_tool echo) share.
//
// The sharded engine's variable→shard map is fixed at run start so that
// ownership never re-homes; this module decides which NUMA domain serves
// each shard. Shards are dealt to domains in balanced contiguous blocks,
// so the default contiguous variable partition keeps each domain's
// variables a compact id range — exactly the slice its thread-group
// first-touches and then streams for the whole run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "topology/numa_topology.hpp"

namespace fastbns {

/// The PcOptions::numa_policy values.
enum class NumaPolicy : std::uint8_t {
  /// Pin + place only when the detected topology has more than one
  /// domain; single-socket boxes run exactly as before.
  kAuto,
  /// Never pin or place (the pre-NUMA behaviour).
  kOff,
  /// Pin + place whatever the topology says — the tests/CI setting that
  /// exercises the machinery under FASTBNS_NUMA simulated topologies
  /// (and on single-socket boxes, where auto would skip it).
  kForced,
};

/// Resolves a policy name ("auto" / "off" / "forced"); throws
/// std::invalid_argument naming the offending value and the known
/// policies.
[[nodiscard]] NumaPolicy numa_policy_from_string(std::string_view name);
[[nodiscard]] std::string_view to_string(NumaPolicy policy) noexcept;
/// Known policy names, in declaration order.
[[nodiscard]] std::vector<std::string> list_numa_policies();

/// The resolved placement of one sharded run: whether pinning and
/// first-touch are in effect, the topology they act on, and the
/// shard→domain map (always filled, so describe() is meaningful even
/// when inactive).
struct ShardPlacement {
  bool active = false;
  NumaTopology topology;
  /// Domain serving each shard; size = shard count.
  std::vector<std::int32_t> shard_domain;

  /// One-line summary for logs and the structure_tool echo, e.g.
  /// "active, 2 simulated nodes (2+2 cpus), shards [0,2)->node0
  /// [2,4)->node1".
  [[nodiscard]] std::string describe() const;
};

/// Builds the placement for `shard_count` shards under `policy` on
/// `topology`: shards are dealt to domains in balanced contiguous blocks
/// (shard s -> domain s * D / S, sizes differing by at most one). Throws
/// std::invalid_argument when shard_count < 1.
[[nodiscard]] ShardPlacement plan_shard_placement(NumaPolicy policy,
                                                  std::int32_t shard_count,
                                                  const NumaTopology& topology);

}  // namespace fastbns
