// The EngineRegistry contract: canonical names round-trip through
// engine_from_string / to_string, aliases resolve, unknown names fail
// loudly, and every registered factory builds an engine that agrees on
// its own name.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "engine/engine_registry.hpp"
#include "engine/skeleton_engine.hpp"

namespace fastbns {
namespace {

TEST(EngineRegistry, ListsTheBuiltinEnginesSorted) {
  const std::vector<std::string> names = list_engines();
  ASSERT_EQ(names.size(), 7u);
  // list_engines() is the stable, sorted order CLI help enumerates.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"naive-seq", "fastbns-seq", "edge-parallel", "sample-parallel",
        "fastbns-par(ci-level)", "async(depth-overlap)",
        "process(rank-partition)"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // names() keeps registration order: the paper's five engines first.
  // Pinned on a standalone registry — the global instance may have
  // grown extension registrations, which is exactly why list_engines()
  // sorts.
  const std::vector<std::string> registration_order =
      EngineRegistry{}.names();
  ASSERT_EQ(registration_order.size(), 7u);
  EXPECT_EQ(registration_order[0], "naive-seq");
  EXPECT_EQ(registration_order[4], "fastbns-par(ci-level)");
  EXPECT_EQ(registration_order[5], "async(depth-overlap)");
  EXPECT_EQ(registration_order[6], "process(rank-partition)");
}

TEST(EngineRegistry, CanonicalNamesRoundTrip) {
  for (const std::string& name : list_engines()) {
    EXPECT_EQ(to_string(engine_from_string(name)), name) << name;
  }
}

TEST(EngineRegistry, KindsRoundTripThroughNames) {
  for (const EngineKind kind :
       {EngineKind::kNaiveSequential, EngineKind::kFastSequential,
        EngineKind::kEdgeParallel, EngineKind::kSampleParallel,
        EngineKind::kCiParallel, EngineKind::kAsync, EngineKind::kProcess}) {
    EXPECT_EQ(engine_from_string(to_string(kind)), kind);
  }
}

TEST(EngineRegistry, AliasesResolve) {
  EXPECT_EQ(engine_from_string("naive"), EngineKind::kNaiveSequential);
  EXPECT_EQ(engine_from_string("seq"), EngineKind::kFastSequential);
  EXPECT_EQ(engine_from_string("edge"), EngineKind::kEdgeParallel);
  EXPECT_EQ(engine_from_string("sample"), EngineKind::kSampleParallel);
  EXPECT_EQ(engine_from_string("ci"), EngineKind::kCiParallel);
  EXPECT_EQ(engine_from_string("fastbns-par"), EngineKind::kCiParallel);
  EXPECT_EQ(engine_from_string("async"), EngineKind::kAsync);
  EXPECT_EQ(engine_from_string("overlap"), EngineKind::kAsync);
  EXPECT_EQ(engine_from_string("process"), EngineKind::kProcess);
  EXPECT_EQ(engine_from_string("mpp"), EngineKind::kProcess);
}

TEST(EngineRegistry, UnknownNameThrowsListingKnownEngines) {
  // "hybrid", "sharded" and "shard" name deleted engines, and "auto" is
  // not an engine name either; they fail like any other unknown name.
  for (const char* name : {"warp-drive", "hybrid", "sharded", "shard",
                           "sharded(var-partition)", "auto"}) {
    try {
      (void)engine_from_string(name);
      FAIL() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(name), std::string::npos) << message;
      EXPECT_NE(message.find("known engines:"), std::string::npos) << message;
      EXPECT_NE(message.find("fastbns-par(ci-level)"), std::string::npos);
    }
  }
  EXPECT_THROW((void)EngineRegistry::instance().create("warp-drive"),
               std::invalid_argument);
}

TEST(EngineRegistry, FactoriesBuildEnginesThatKnowTheirNames) {
  const EngineRegistry& registry = EngineRegistry::instance();
  for (const std::string& name : list_engines()) {
    const std::unique_ptr<SkeletonEngine> engine = registry.create(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
  }
}

TEST(EngineRegistry, MetadataMatchesEngineBehaviour) {
  const EngineRegistry& registry = EngineRegistry::instance();
  // Only the naive baseline forbids endpoint grouping; only the
  // sample-parallel engine wants sample-parallel tests. The EngineInfo
  // trait mirrors must agree with the engines' behavioural virtuals.
  for (const std::string& name : list_engines()) {
    const EngineInfo* info = registry.find(name);
    ASSERT_NE(info, nullptr) << name;
    const std::unique_ptr<SkeletonEngine> engine = registry.create(name);
    EXPECT_EQ(engine->supports_endpoint_grouping(), name != "naive-seq")
        << name;
    EXPECT_EQ(engine->wants_sample_parallel_test(), name == "sample-parallel")
        << name;
    EXPECT_EQ(info->supports_endpoint_grouping,
              engine->supports_endpoint_grouping())
        << name;
    EXPECT_EQ(info->sample_parallel_test, engine->wants_sample_parallel_test())
        << name;
  }
}

TEST(EngineRegistry, CreateByKindReturnsFirstRegistration) {
  const std::unique_ptr<SkeletonEngine> engine =
      EngineRegistry::instance().create(EngineKind::kCiParallel);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->name(), "fastbns-par(ci-level)");
}

// A minimal out-of-tree backend: registration makes it constructible by
// name, while kind-based lookups keep resolving to the builtin. Runs
// against a standalone registry so the process-wide singleton stays
// pristine for the other tests (and under --gtest_repeat/shuffle).
class NullEngine final : public SkeletonEngine {
 public:
  std::int64_t run_depth(std::vector<EdgeWork>&, std::int32_t, const CiTest&,
                         const PcOptions&) override {
    return 0;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "null-test-engine";
  }
};

TEST(EngineRegistry, ExtensionEnginesRegisterAndRejectDuplicates) {
  EngineRegistry registry;  // standalone, pre-populated with the builtins
  registry.register_engine(
      {EngineKind::kCiParallel, "null-test-engine", {"null"}, "test dummy"},
      [] { return std::make_unique<NullEngine>(); });

  EXPECT_EQ(registry.create("null-test-engine")->name(), "null-test-engine");
  ASSERT_NE(registry.find("null"), nullptr);
  EXPECT_EQ(registry.find("null")->name, "null-test-engine");
  const std::vector<std::string> names = registry.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "null-test-engine"),
            names.end());
  // kCiParallel still resolves to the builtin registered first.
  EXPECT_EQ(registry.find(EngineKind::kCiParallel)->name,
            "fastbns-par(ci-level)");
  EXPECT_EQ(registry.create(EngineKind::kCiParallel)->name(),
            "fastbns-par(ci-level)");
  // ...but by-name selection through PcOptions::engine_name reaches the
  // extension even though it shares the builtin's kind.
  PcOptions options;
  options.engine = EngineKind::kCiParallel;
  options.engine_name = "null-test-engine";
  EXPECT_EQ(registry.create(options)->name(), "null-test-engine");

  // Duplicate canonical names and aliases are rejected.
  EXPECT_THROW(registry.register_engine({EngineKind::kCiParallel,
                                         "null-test-engine",
                                         {},
                                         "dup"},
                                        [] {
                                          return std::make_unique<NullEngine>();
                                        }),
               std::invalid_argument);
  EXPECT_THROW(registry.register_engine({EngineKind::kCiParallel,
                                         "other-name",
                                         {"ci"},
                                         "alias clash"},
                                        [] {
                                          return std::make_unique<NullEngine>();
                                        }),
               std::invalid_argument);
  // The process-wide singleton never saw the extension.
  EXPECT_EQ(EngineRegistry::instance().find("null-test-engine"), nullptr);
}

}  // namespace
}  // namespace fastbns
