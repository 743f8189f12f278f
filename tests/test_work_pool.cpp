#include "pc/work_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

namespace fastbns {
namespace {

TEST(WorkPool, PopsLowestIndexFirst) {
  WorkPool pool({0, 1, 2}, 3);
  EXPECT_EQ(pool.try_pop(), 0);
  EXPECT_EQ(pool.try_pop(), 1);
  EXPECT_EQ(pool.try_pop(), 2);
  EXPECT_EQ(pool.try_pop(), std::nullopt);
}

TEST(WorkPool, PushReturnsWorkLifo) {
  WorkPool pool({0, 1}, 2);
  ASSERT_EQ(pool.try_pop(), 0);
  pool.push(0);
  EXPECT_EQ(pool.try_pop(), 0);  // most recently pushed pops first
}

TEST(WorkPool, AllCompleteTracksOutstanding) {
  WorkPool pool({0, 1}, 2);
  EXPECT_FALSE(pool.all_complete());
  pool.mark_complete();
  EXPECT_FALSE(pool.all_complete());
  pool.mark_complete();
  EXPECT_TRUE(pool.all_complete());
}

TEST(WorkPool, EmptyPoolWithOutstandingWorkIsNotComplete) {
  WorkPool pool({0}, 1);
  ASSERT_EQ(pool.try_pop(), 0);
  // Stack empty but the edge is in flight.
  EXPECT_EQ(pool.try_pop(), std::nullopt);
  EXPECT_FALSE(pool.all_complete());
  pool.push(0);
  EXPECT_EQ(pool.try_pop(), 0);
  pool.mark_complete();
  EXPECT_TRUE(pool.all_complete());
}

TEST(WorkPool, ZeroWorkIsImmediatelyComplete) {
  WorkPool pool({}, 0);
  EXPECT_TRUE(pool.all_complete());
  EXPECT_EQ(pool.try_pop(), std::nullopt);
}

TEST(WorkPool, ConcurrentDrainProcessesEveryItemExactlyOnce) {
  constexpr std::int64_t kItems = 2000;
  std::vector<std::int64_t> initial(kItems);
  for (std::int64_t i = 0; i < kItems; ++i) initial[i] = i;
  WorkPool pool(std::move(initial), kItems);

  std::vector<std::atomic<int>> seen(kItems);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!pool.all_complete()) {
        const auto index = pool.try_pop();
        if (!index.has_value()) {
          std::this_thread::yield();
          continue;
        }
        seen[*index].fetch_add(1);
        pool.mark_complete();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::int64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  }
  EXPECT_TRUE(pool.all_complete());
}

TEST(WorkPool, ConcurrentPushBackRetainsWork) {
  // Each item is pushed back twice before completing (progress simulation).
  constexpr std::int64_t kItems = 500;
  std::vector<std::int64_t> initial(kItems);
  for (std::int64_t i = 0; i < kItems; ++i) initial[i] = i;
  WorkPool pool(std::move(initial), kItems);

  std::vector<std::atomic<int>> visits(kItems);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!pool.all_complete()) {
        const auto index = pool.try_pop();
        if (!index.has_value()) {
          std::this_thread::yield();
          continue;
        }
        const int visit = visits[*index].fetch_add(1) + 1;
        if (visit < 3) {
          pool.push(*index);
        } else {
          pool.mark_complete();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::int64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(visits[i].load(), 3) << "item " << i;
  }
}

}  // namespace
}  // namespace fastbns
