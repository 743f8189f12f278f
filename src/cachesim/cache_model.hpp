// Set-associative LRU cache simulator.
//
// Substitute for the Linux `perf` hardware counters of the paper's
// Table IV (this reproduction cannot assume PMU access): the simulator
// replays the exact data-access stream of contingency-table construction
// and reports L1/last-level accesses and misses, which is precisely the
// quantity the paper attributes to the storage-layout optimization.
#pragma once

#include <cstdint>
#include <vector>

namespace fastbns {

struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;
  std::size_t line_bytes = 64;
  std::size_t associativity = 8;
};

struct CacheStats {
  std::int64_t accesses = 0;
  std::int64_t misses = 0;
  [[nodiscard]] double miss_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

/// One cache level with true-LRU replacement.
class CacheModel {
 public:
  explicit CacheModel(CacheConfig config);

  /// Touches the line containing `address`; returns true on hit.
  bool access(std::uint64_t address);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  void reset();

 private:
  CacheConfig config_;
  std::size_t num_sets_;
  /// ways per set, MRU first; 0 is the invalid tag sentinel (tags are
  /// stored +1 so address 0 is representable).
  std::vector<std::uint64_t> ways_;
  CacheStats stats_;
};

/// Two-level hierarchy matching Table IV's L1 / last-level structure.
class MemoryHierarchy {
 public:
  MemoryHierarchy(CacheConfig l1, CacheConfig last_level);

  /// Accesses L1, falling through to LL on miss. Returns true when some
  /// cache level served the access, false when it missed both and fell
  /// through to DRAM.
  bool access(std::uint64_t address);

  [[nodiscard]] const CacheStats& l1() const noexcept { return l1_.stats(); }
  [[nodiscard]] const CacheStats& last_level() const noexcept {
    return ll_.stats();
  }
  void reset();

 private:
  CacheModel l1_;
  CacheModel ll_;
};

}  // namespace fastbns
