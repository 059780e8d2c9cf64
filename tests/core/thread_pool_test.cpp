#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.h"

namespace orinsim {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 16,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, SumReduction) {
  ThreadPool pool(4);
  std::vector<long long> partial(100, 0);
  pool.parallel_for(0, partial.size(),
                    [&](std::size_t i) { partial[i] = static_cast<long long>(i); });
  const long long total = std::accumulate(partial.begin(), partial.end(), 0LL);
  EXPECT_EQ(total, 99LL * 100 / 2);
}

TEST(ThreadPoolTest, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, NullTaskRejected) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), ContractViolation);
}

// Regression: parallel_for used to deadlock when invoked from a pool worker
// (the inner call waited for helper shards stuck behind the caller's own
// task). The caller now drains the index range inline, so nesting completes
// even when every helper shard is queued behind the outer tasks.
TEST(ThreadPoolTest, NestedParallelForFromWorkerCompletes) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, 4, [&](std::size_t outer) {
    pool.parallel_for(0, 16, [&](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Worst case for the old deadlock: one worker, whose only thread is busy
// running the outer task when the nested call arrives.
TEST(ThreadPoolTest, NestedParallelForSingleWorkerCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(0, 3, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 3 * 8);
}

TEST(ThreadPoolTest, NestedParallelForFromSubmittedTaskCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.submit([&] {
    pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, ShardOverloadCoversAllIndicesWithValidShards) {
  ThreadPool pool(3);
  ASSERT_EQ(pool.shard_count(), 4u);
  std::vector<std::atomic<int>> hits(200);
  std::atomic<bool> shard_in_range{true};
  pool.parallel_for(0, hits.size(), [&](std::size_t shard, std::size_t i) {
    if (shard >= pool.shard_count()) shard_in_range.store(false);
    hits[i].fetch_add(1);
  });
  EXPECT_TRUE(shard_in_range.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// At most one index runs per shard at a time, so unsynchronized per-shard
// accumulators are safe — the property per-worker workspaces rely on.
TEST(ThreadPoolTest, ShardOverloadSerializesWithinShard) {
  ThreadPool pool(4);
  std::vector<long long> per_shard(pool.shard_count(), 0);  // no atomics
  const std::size_t n = 5000;
  pool.parallel_for(0, n, [&](std::size_t shard, std::size_t i) {
    per_shard[shard] += static_cast<long long>(i);
  });
  const long long total = std::accumulate(per_shard.begin(), per_shard.end(), 0LL);
  EXPECT_EQ(total, static_cast<long long>(n) * (n - 1) / 2);
}

// Callers size per-shard scratch by min(shard_count(), indices), so a short
// range on a wide pool must never see a shard past its index count.
TEST(ThreadPoolTest, ShardStaysBelowIndexCount) {
  ThreadPool pool(6);
  std::atomic<bool> shard_in_range{true};
  for (int rep = 0; rep < 200; ++rep) {
    pool.parallel_for(0, 3, [&](std::size_t shard, std::size_t) {
      if (shard >= 3) shard_in_range.store(false);
    });
  }
  EXPECT_TRUE(shard_in_range.load());
}

TEST(ThreadPoolTest, ShardZeroIsCallingThread) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> shard0_is_caller{true};
  pool.parallel_for(0, 100, [&](std::size_t shard, std::size_t) {
    if (shard == 0 && std::this_thread::get_id() != caller) {
      shard0_is_caller.store(false);
    }
  });
  EXPECT_TRUE(shard0_is_caller.load());
}

// parallel_rows hands each kRowTile tile to fn separately once the kernel
// is big enough, and the whole range in one serial call otherwise.
TEST(ThreadPoolTest, ParallelRowsTilesOnlyAboveWorkCutoff) {
  ThreadPool pool(2);
  const std::size_t rows = 3 * kRowTile + 5;
  auto ranges = [&](ThreadPool* p, std::size_t row_work) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    parallel_rows(p, rows, row_work, [&](std::size_t, std::size_t r0, std::size_t r1) {
      std::lock_guard<std::mutex> lock(mu);
      seen.emplace_back(r0, r1);
    });
    std::sort(seen.begin(), seen.end());
    return seen;
  };
  const std::vector<std::pair<std::size_t, std::size_t>> whole = {{0, rows}};
  const std::vector<std::pair<std::size_t, std::size_t>> tiles = {
      {0, kRowTile}, {kRowTile, 2 * kRowTile}, {2 * kRowTile, 3 * kRowTile},
      {3 * kRowTile, rows}};
  EXPECT_EQ(ranges(&pool, kMinParallelWork), tiles);
  EXPECT_EQ(ranges(&pool, kMinParallelWork / rows - 1), whole);
  EXPECT_EQ(ranges(nullptr, kMinParallelWork), whole);
}

}  // namespace
}  // namespace orinsim
