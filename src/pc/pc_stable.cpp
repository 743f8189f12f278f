#include "pc/pc_stable.hpp"

#include <memory>
#include <optional>

#include "common/timer.hpp"
#include "engine/engine_registry.hpp"
#include "engine/skeleton_engine.hpp"
#include "ipc/shared_dataset.hpp"
#include "stats/ci_test_factory.hpp"

namespace fastbns {

PcStableResult pc_stable(VarId num_nodes, const CiTest& prototype,
                         const PcOptions& options, SkeletonEngine& engine) {
  const WallTimer timer;
  PcStableResult result;
  result.skeleton = learn_skeleton(num_nodes, prototype, options, engine);
  result.cpdag = orient_skeleton(result.skeleton.graph, result.skeleton.sepsets,
                                 &result.orientation);
  result.total_seconds = timer.seconds();
  return result;
}

PcStableResult pc_stable(VarId num_nodes, const CiTest& prototype,
                         const PcOptions& options) {
  const std::unique_ptr<SkeletonEngine> engine =
      EngineRegistry::instance().create(options);
  return pc_stable(num_nodes, prototype, options, *engine);
}

PcStableResult learn_structure(const Dataset& data, const PcOptions& options) {
  const std::unique_ptr<SkeletonEngine> engine =
      EngineRegistry::instance().create(options);
  return learn_structure(data, options, *engine);
}

PcStableResult learn_structure(const Dataset& data, const PcOptions& options,
                               SkeletonEngine& engine) {
  CiTestRequest request;
  request.ci_test = options.ci_test;
  request.alpha = options.alpha;
  request.max_cells = options.max_table_cells;
  request.table_builder = options.table_builder;
  request.sample_parallel = engine.wants_sample_parallel_test();
  // The multi-process engine forks worker ranks; mount the dataset in a
  // MAP_SHARED segment first so every rank streams the same physical
  // pages (mapped once, zero per-rank copies — not even COW duplicates).
  const EngineInfo* info = EngineRegistry::instance().find(engine.name());
  std::optional<SharedDatasetSegment> shared;
  const Dataset* active = &data;
  if (info != nullptr && info->kind == EngineKind::kProcess) {
    shared.emplace(SharedDatasetSegment::create(data));
    active = &shared->dataset();
  }
  const std::unique_ptr<CiTest> test = make_ci_test(*active, request);
  return pc_stable(active->num_vars(), *test, options, engine);
}

PcStableResult learn_structure(const DiscreteDataset& data,
                               const PcOptions& options) {
  return learn_structure(Dataset::borrow(data), options);
}

PcStableResult learn_structure(const DiscreteDataset& data,
                               const PcOptions& options,
                               SkeletonEngine& engine) {
  return learn_structure(Dataset::borrow(data), options, engine);
}

PcStableResult learn_structure(const ContinuousDataset& data,
                               const PcOptions& options) {
  return learn_structure(Dataset::borrow(data), options);
}

PcStableResult learn_structure(const ContinuousDataset& data,
                               const PcOptions& options,
                               SkeletonEngine& engine) {
  return learn_structure(Dataset::borrow(data), options, engine);
}

}  // namespace fastbns
