#include "pc/work_pool.hpp"

#include <algorithm>

namespace fastbns {

WorkPool::WorkPool(std::vector<std::int64_t> initial, std::int64_t outstanding)
    : stack_(std::move(initial)), outstanding_(outstanding) {
  // LIFO stack: reverse so that lower indices pop first initially.
  std::reverse(stack_.begin(), stack_.end());
}

std::optional<std::int64_t> WorkPool::try_pop() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stack_.empty()) return std::nullopt;
  const std::int64_t index = stack_.back();
  stack_.pop_back();
  return index;
}

void WorkPool::push(std::int64_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stack_.push_back(index);
}

void WorkPool::mark_complete() noexcept {
  outstanding_.fetch_sub(1, std::memory_order_acq_rel);
}

bool WorkPool::all_complete() const noexcept {
  return outstanding_.load(std::memory_order_acquire) <= 0;
}

}  // namespace fastbns
