#include "pc/edge_work.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <string>

namespace fastbns {
namespace {

void snapshot_candidates(const UndirectedGraph& graph, VarId v, VarId excluded,
                         std::vector<VarId>& out) {
  graph.neighbors_into(v, out);
  const auto it = std::find(out.begin(), out.end(), excluded);
  if (it != out.end()) out.erase(it);
}

}  // namespace

EdgeWork build_edge_work(const UndirectedGraph& graph, VarId x, VarId y,
                         std::int32_t depth, bool group_endpoints) {
  EdgeWork work;
  work.x = x;
  work.y = y;
  if (depth == 0) {
    // Single marginal test I(x, y | {}): no candidate snapshot needed.
    work.total1 = 1;
    return work;
  }
  snapshot_candidates(graph, x, y, work.candidates1);
  work.total1 =
      binomial(static_cast<std::int64_t>(work.candidates1.size()), depth);
  if (group_endpoints) {
    snapshot_candidates(graph, y, x, work.candidates2);
    work.total2 =
        binomial(static_cast<std::int64_t>(work.candidates2.size()), depth);
  }
  return work;
}

std::vector<EdgeWork> build_depth_works(const UndirectedGraph& graph,
                                        std::int32_t depth,
                                        bool group_endpoints) {
  std::vector<EdgeWork> works;
  const auto edges = graph.edges();
  works.reserve(group_endpoints ? edges.size() : 2 * edges.size());

  for (const auto& [u, v] : edges) {
    // Grouped: one work covering both directions. Ungrouped: the classic
    // ordered-pair traversal, (u, v) then (v, u), direction 1 only.
    works.push_back(build_edge_work(graph, u, v, depth, group_endpoints));
    if (!group_endpoints) {
      works.push_back(build_edge_work(graph, v, u, depth, group_endpoints));
    }
  }
  return works;
}

void conditioning_set_for(const EdgeWork& work, std::int32_t depth,
                          std::uint64_t r, std::vector<VarId>& z_out) {
  z_out.resize(static_cast<std::size_t>(depth));
  if (depth == 0) return;
  std::array<std::int32_t, 32> indices{};
  assert(depth <= static_cast<std::int32_t>(indices.size()));
  const std::span<std::int32_t> index_span(indices.data(),
                                           static_cast<std::size_t>(depth));
  const std::vector<VarId>* pool = nullptr;
  if (r < work.total1) {
    pool = &work.candidates1;
    unrank_combination(static_cast<std::int32_t>(work.candidates1.size()),
                       depth, r, index_span);
  } else {
    pool = &work.candidates2;
    unrank_combination(static_cast<std::int32_t>(work.candidates2.size()),
                       depth, r - work.total1, index_span);
  }
  for (std::int32_t i = 0; i < depth; ++i) {
    z_out[i] = (*pool)[indices[i]];
  }
}

namespace {

template <bool kEarlyStop>
std::int64_t process_impl(EdgeWork& work, std::int32_t depth,
                          std::uint64_t max_tests, CiTest& test,
                          bool use_group_protocol) {
  if (work.finished() || max_tests == 0) return 0;
  if (use_group_protocol) test.begin_group(work.x, work.y);

  const std::uint64_t total = work.total_tests();
  const std::uint64_t end = std::min<std::uint64_t>(
      total, work.progress + max_tests);

  std::int64_t executed = 0;
  std::vector<VarId> z;
  bool found = false;
  for (std::uint64_t r = work.progress; r < end; ++r) {
    conditioning_set_for(work, depth, r, z);
    const CiResult result = use_group_protocol
                                ? test.test_in_group(z)
                                : test.test(work.x, work.y, z);
    ++executed;
    if (result.independent && !found) {
      // Lowest-rank accepting set defines the sepset (determinism across
      // engines and thread counts).
      found = true;
      work.removed = true;
      work.sepset = z;
      if constexpr (kEarlyStop) break;
    }
  }
  work.progress = end;
  return executed;
}

}  // namespace

std::int64_t process_work_tests(EdgeWork& work, std::int32_t depth,
                                std::uint64_t max_tests, CiTest& test,
                                bool use_group_protocol) {
  return process_impl<false>(work, depth, max_tests, test, use_group_protocol);
}

std::int64_t process_work_tests_early_stop(EdgeWork& work, std::int32_t depth,
                                           std::uint64_t max_tests,
                                           CiTest& test,
                                           bool use_group_protocol) {
  return process_impl<true>(work, depth, max_tests, test, use_group_protocol);
}

VariableShards::VariableShards(VarId num_vars, std::int32_t num_shards)
    : num_shards_(num_shards) {
  if (num_vars < 0) {
    throw std::invalid_argument("VariableShards: num_vars must be >= 0, got " +
                                std::to_string(num_vars));
  }
  if (num_shards < 1) {
    throw std::invalid_argument(
        "VariableShards: num_shards must be >= 1, got " +
        std::to_string(num_shards));
  }
  shard_of_.resize(static_cast<std::size_t>(num_vars));
  // Balanced ranges: the first (num_vars % num_shards) shards own one
  // extra variable; with more shards than variables the trailing shards
  // own nothing.
  const VarId base = num_vars / num_shards;
  const VarId extra = num_vars % num_shards;
  VarId next = 0;
  for (std::int32_t s = 0; s < num_shards && next < num_vars; ++s) {
    const VarId size = base + (s < extra ? 1 : 0);
    for (VarId i = 0; i < size; ++i) {
      shard_of_[static_cast<std::size_t>(next++)] = s;
    }
  }
}

std::vector<std::vector<std::int64_t>> shard_work_indices(
    const std::vector<EdgeWork>& works, const VariableShards& shards) {
  std::vector<std::vector<std::int64_t>> result(
      static_cast<std::size_t>(shards.num_shards()));
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(works.size()); ++i) {
    const EdgeWork& work = works[i];
    const VarId owner = std::min(work.x, work.y);
    result[static_cast<std::size_t>(shards.shard_of(owner))].push_back(i);
  }
  return result;
}

std::vector<VarId> materialize_conditioning_sets(const EdgeWork& work,
                                                 std::int32_t depth,
                                                 std::uint64_t limit) {
  const std::uint64_t total = work.total_tests();
  if (total > limit) {
    throw std::runtime_error(
        "materialize_conditioning_sets: conditioning-set table exceeds limit; "
        "use the on-the-fly engines for this problem size");
  }
  std::vector<VarId> flat;
  flat.reserve(static_cast<std::size_t>(total) *
               static_cast<std::size_t>(depth));
  std::vector<VarId> z;
  for (std::uint64_t r = 0; r < total; ++r) {
    conditioning_set_for(work, depth, r, z);
    flat.insert(flat.end(), z.begin(), z.end());
  }
  return flat;
}

}  // namespace fastbns
