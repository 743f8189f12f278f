#include "engine/engine_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "engine/engines.hpp"

namespace fastbns {
namespace {

std::string known_names_message(const EngineRegistry& registry) {
  std::vector<std::string> names = registry.names();
  std::sort(names.begin(), names.end());
  std::string message = "known engines:";
  for (const std::string& name : names) {
    message += ' ';
    message += name;
  }
  return message;
}

}  // namespace

EngineRegistry::EngineRegistry() {
  register_engine({EngineKind::kNaiveSequential,
                   "naive-seq",
                   {"naive"},
                   "bnlearn-like sequential baseline (ordered directions, "
                   "materialized sets, no code reuse)"},
                  make_naive_sequential_engine);
  register_engine({EngineKind::kFastSequential,
                   "fastbns-seq",
                   {"seq", "fast-seq"},
                   "optimized sequential kernel (endpoint grouping, "
                   "on-the-fly sets, group code reuse)"},
                  make_fast_sequential_engine);
  register_engine({EngineKind::kEdgeParallel,
                   "edge-parallel",
                   {"edge"},
                   "static per-depth edge partition over the optimized "
                   "kernel (Section IV-A)"},
                  make_edge_parallel_engine);
  register_engine({EngineKind::kSampleParallel,
                   "sample-parallel",
                   {"sample"},
                   "sequential edge loop with sample-parallel contingency "
                   "tables (Section IV-A)"},
                  make_sample_parallel_engine);
  register_engine({EngineKind::kCiParallel,
                   "fastbns-par(ci-level)",
                   {"ci", "ci-parallel", "fastbns-par"},
                   "CI-level parallelism over the dynamic work pool "
                   "(Section IV-B)"},
                  make_ci_parallel_engine);
  register_engine({EngineKind::kAsync,
                   "async(depth-overlap)",
                   {"async", "overlap"},
                   "CI-level dynamic pool whose idle tail threads prepare "
                   "the next depth's work list (settled-edge candidate sets "
                   "+ records) instead of spinning at the depth barrier"},
                  make_async_engine);
  register_engine({EngineKind::kProcess,
                   "process(rank-partition)",
                   {"process", "mpp"},
                   "multi-process rank partition: forked worker ranks over "
                   "a MAP_SHARED dataset segment, removal sets + sepsets "
                   "allreduced over pipe frames at each depth barrier (see "
                   "PcOptions::rank_count/rank_threads)"},
                  make_process_engine);
}

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry registry;
  return registry;
}

void EngineRegistry::register_engine(EngineInfo info, EngineFactory factory) {
  if (info.name.empty()) {
    throw std::invalid_argument("engine registration requires a name");
  }
  if (!factory) {
    throw std::invalid_argument("engine registration requires a factory");
  }
  if (entry_for(info.name) != nullptr) {
    throw std::invalid_argument("engine name already registered: " +
                                info.name);
  }
  for (const std::string& alias : info.aliases) {
    if (entry_for(alias) != nullptr) {
      throw std::invalid_argument("engine alias already registered: " + alias);
    }
  }
  // Probe one instance: the behavioural virtuals are the single source of
  // the EngineInfo traits, and the engine must agree on its own name.
  const std::unique_ptr<SkeletonEngine> probe = factory();
  if (probe == nullptr || probe->name() != info.name) {
    throw std::invalid_argument("engine factory for \"" + info.name +
                                "\" built an engine reporting a different "
                                "name");
  }
  info.sample_parallel_test = probe->wants_sample_parallel_test();
  info.supports_endpoint_grouping = probe->supports_endpoint_grouping();
  entries_.push_back({std::move(info), std::move(factory)});
}

const EngineRegistry::Entry* EngineRegistry::entry_for(
    std::string_view name) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.info.name == name) return &entry;
    for (const std::string& alias : entry.info.aliases) {
      if (alias == name) return &entry;
    }
  }
  return nullptr;
}

std::unique_ptr<SkeletonEngine> EngineRegistry::create(EngineKind kind) const {
  for (const Entry& entry : entries_) {
    if (entry.info.kind == kind) return entry.factory();
  }
  throw std::invalid_argument("no engine registered for this EngineKind");
}

std::unique_ptr<SkeletonEngine> EngineRegistry::create(
    std::string_view name) const {
  const Entry* entry = entry_for(name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown engine \"" + std::string(name) +
                                "\"; " + known_names_message(*this));
  }
  return entry->factory();
}

std::unique_ptr<SkeletonEngine> EngineRegistry::create(
    const PcOptions& options) const {
  return options.engine_name.empty()
             ? create(options.engine)
             : create(std::string_view(options.engine_name));
}

const EngineInfo* EngineRegistry::find(std::string_view name) const noexcept {
  const Entry* entry = entry_for(name);
  return entry == nullptr ? nullptr : &entry->info;
}

const EngineInfo* EngineRegistry::find(EngineKind kind) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.info.kind == kind) return &entry.info;
  }
  return nullptr;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const Entry& entry : entries_) result.push_back(entry.info.name);
  return result;
}

EngineKind engine_from_string(std::string_view name) {
  const EngineRegistry& registry = EngineRegistry::instance();
  const EngineInfo* info = registry.find(name);
  if (info == nullptr) {
    throw std::invalid_argument("unknown engine \"" + std::string(name) +
                                "\"; " + known_names_message(registry));
  }
  return info->kind;
}

std::vector<std::string> list_engines() {
  // Sorted so CLI help, logs and registry-driven tests see one stable
  // order regardless of registration sequence (extensions register at
  // startup in arbitrary order).
  std::vector<std::string> names = EngineRegistry::instance().names();
  std::sort(names.begin(), names.end());
  return names;
}

// Declared in pc/pc_options.hpp; lives here so the registry's canonical
// names are the single source every CLI parser and log line agrees on.
std::string to_string(EngineKind kind) {
  const EngineInfo* info = EngineRegistry::instance().find(kind);
  return info == nullptr ? "unknown" : info->name;
}

}  // namespace fastbns
