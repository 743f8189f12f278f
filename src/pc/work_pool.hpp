// The dynamic work pool (Section IV-B).
//
// A mutex-guarded LIFO stack of work indices plus an outstanding-work
// counter. A thread pops one edge, runs up to a claim's worth of gs-test
// groups on it while holding exclusive ownership of its EdgeWork record
// (so the record needs no atomics), then either marks it complete or
// pushes it back with an advanced progress cursor. Pool operations are
// amortized over several contingency-table builds, which is what keeps
// the synchronization cost negligible. try_pop returns immediately;
// callers yield and re-check all_complete while the stack is dry.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

namespace fastbns {

class WorkPool {
 public:
  /// `initial` holds the work indices initially available (pushed so the
  /// lowest index is popped first); `outstanding` is the number of works
  /// that will eventually be marked complete.
  WorkPool(std::vector<std::int64_t> initial, std::int64_t outstanding);

  /// Pops one work index; std::nullopt when the stack is momentarily
  /// empty (the caller must re-check all_complete() before exiting —
  /// another thread may push its edge back).
  [[nodiscard]] std::optional<std::int64_t> try_pop();

  /// Returns an edge whose processing is not finished to the pool.
  void push(std::int64_t index);

  /// Declares one work finished (removed or out of CI tests).
  void mark_complete() noexcept;

  [[nodiscard]] bool all_complete() const noexcept;

 private:
  std::mutex mutex_;
  std::vector<std::int64_t> stack_;
  std::atomic<std::int64_t> outstanding_;
};

}  // namespace fastbns
