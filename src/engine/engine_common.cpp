#include "engine/engine_common.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <typeinfo>

#include "common/omp_utils.hpp"

namespace fastbns {
namespace {

/// Dynamic type folded with the test's own configuration fingerprint:
/// the address alone cannot distinguish a reconfigured (or
/// differently-typed) prototype constructed at a recycled address.
std::uint64_t prototype_fingerprint(const CiTest& prototype) noexcept {
  return static_cast<std::uint64_t>(typeid(prototype).hash_code()) ^
         prototype.config_token();
}

}  // namespace

std::vector<std::unique_ptr<CiTest>>& ThreadLocalTests::acquire(
    const CiTest& prototype, std::size_t count) {
  const std::uint64_t fingerprint = prototype_fingerprint(prototype);
  if (cloned_from_ != &prototype || cloned_fingerprint_ != fingerprint ||
      clones_.size() != count) {
    clones_.clear();
    clones_.reserve(count);
    for (std::size_t t = 0; t < count; ++t) clones_.push_back(prototype.clone());
    cloned_from_ = &prototype;
    cloned_fingerprint_ = fingerprint;
  }
  return clones_;
}

void ThreadLocalTests::reset() noexcept {
  clones_.clear();
  cloned_from_ = nullptr;
  cloned_fingerprint_ = 0;
}

std::int64_t run_depth_zero_edge_parallel(
    std::vector<EdgeWork>& works,
    std::vector<std::unique_ptr<CiTest>>& clones) {
  std::int64_t tests = 0;
#pragma omp parallel for schedule(static) reduction(+ : tests)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(works.size()); ++i) {
    EdgeWork& work = works[i];
    if (work.total_tests() == 0) continue;
    tests += process_work_tests(work, /*depth=*/0, 1,
                                *clones[current_thread()],
                                /*use_group_protocol=*/true);
  }
  return tests;
}

std::vector<std::int64_t> pending_work_indices(
    const std::vector<EdgeWork>& works) {
  std::vector<std::int64_t> indices;
  indices.reserve(works.size());
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(works.size()); ++i) {
    if (works[i].total_tests() > 0) indices.push_back(i);
  }
  return indices;
}

std::int64_t process_materialized(EdgeWork& work, std::int32_t depth,
                                  CiTest& test, bool use_group_protocol) {
  std::int64_t executed = 0;
  if (use_group_protocol) test.begin_group(work.x, work.y);
  if (depth == 0) {
    const std::vector<VarId> empty_set;
    const CiResult result = use_group_protocol
                                ? test.test_in_group(empty_set)
                                : test.test(work.x, work.y, empty_set);
    ++executed;
    if (result.independent) {
      work.removed = true;
      work.sepset.clear();
    }
    work.progress = 1;
    return executed;
  }
  const std::vector<VarId> flat = materialize_conditioning_sets(work, depth);
  const std::uint64_t total = work.total_tests();
  std::vector<VarId> z(static_cast<std::size_t>(depth));
  for (std::uint64_t r = 0; r < total; ++r) {
    const VarId* begin = flat.data() + r * static_cast<std::uint64_t>(depth);
    std::copy(begin, begin + depth, z.begin());
    const CiResult result = use_group_protocol
                                ? test.test_in_group(z)
                                : test.test(work.x, work.y, z);
    ++executed;
    if (result.independent) {
      work.removed = true;
      work.sepset = z;
      break;
    }
  }
  work.progress = total;
  return executed;
}

std::int64_t run_sequential_depth(std::vector<EdgeWork>& works,
                                  std::int32_t depth, CiTest& test,
                                  bool grouped, bool materialized,
                                  bool use_group_protocol) {
  std::int64_t tests = 0;
  for (std::size_t i = 0; i < works.size(); ++i) {
    EdgeWork& work = works[i];
    if (work.total_tests() == 0) continue;
    // Classic sequential PC-stable skips the (y, x) direction when the
    // (x, y) direction already removed the edge within this depth. The
    // partner is matched by its endpoint ids — "the work before me was at
    // an odd index" is a layout accident, not an invariant, and a
    // reordered or filtered work list must never skip an unrelated edge
    // because its predecessor happened to be removed.
    if (!grouped && i > 0) {
      const EdgeWork& previous = works[i - 1];
      if (previous.removed && previous.x == work.y && previous.y == work.x) {
        continue;
      }
    }
    if (materialized) {
      tests += process_materialized(work, depth, test, use_group_protocol);
    } else {
      tests += process_work_tests_early_stop(work, depth, work.total_tests(),
                                             test, use_group_protocol);
    }
  }
  return tests;
}

}  // namespace fastbns
