// A small fixed-size thread pool with a blocking parallel_for: the process's
// only threading runtime. Callers that want parallelism own a pool and hand
// it down — to Model::generate (lanes), to a serving backend (requests), and
// through InferenceWorkspace::pool to the weight-streaming kernels, which
// shard their output rows over it with parallel_rows(). With no pool a
// kernel runs serially; there is no process-wide default.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace orinsim {

class ThreadPool {
 public:
  // `threads` workers. 0 means one fewer than hardware_concurrency (at
  // least 1): the calling thread runs shard 0 of every parallel_for, so a
  // parallel_for then runs on hardware_concurrency threads without
  // oversubscribing the cores.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  // Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  // Block until all submitted tasks have finished.
  void wait_idle();

  // Run fn(i) for i in [begin, end) across the pool and wait. Exceptions
  // thrown by fn are rethrown (first one wins) after all indices complete.
  //
  // The call publishes one job in the pool's job slot; idle workers claim
  // indices from it directly (nothing is queued or allocated per call), and
  // the calling thread claims indices too, so the range always finishes
  // even if no worker is free — parallel_for is safe to invoke from a
  // submitted task. The slot holds one job at a time: a call made from
  // inside an index of this pool's own parallel_for (say, a row-sharded
  // kernel inside a lane shard), or while another thread's job holds the
  // slot, runs every index inline on the calling thread. A range of one
  // index also runs inline and leaves nested calls free to fan out.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  // Like parallel_for, but fn(shard, i) also receives the identity of the
  // executing shard: a stable value in [0, shard_count()) for the duration of
  // the call, with at most one index running per shard at a time. Callers use
  // it to index per-shard scratch (e.g. one InferenceWorkspace per worker).
  // Shard 0 is always the calling thread; helpers take shards 1, 2, ... as
  // they join, so a shard is also below the number of indices.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  // Upper bound on the shard index parallel_for passes to fn: the workers
  // plus the calling thread.
  std::size_t shard_count() const noexcept { return workers_.size() + 1; }

 private:
  // The slot a parallel_for publishes its range in. Reused by every call;
  // the caller that owns it waits for all helpers to leave before returning.
  struct Job {
    std::atomic<bool> owned{false};           // a caller holds the slot
    std::atomic<bool> open{false};            // helpers may join
    std::atomic<std::uint64_t> epoch{0};      // bumped as each job opens
    std::atomic<std::size_t> helpers{0};      // workers inside the job
    std::atomic<std::size_t> next_shard{1};   // shard the next helper takes
    std::size_t shards = 0;                   // shards the job may use
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t end = 0;
    std::atomic<std::size_t> next{0};         // next unclaimed index
    std::atomic<std::size_t> pending{0};      // indices not yet finished
    std::mutex mutex;                         // guards error; caller sleeps on cv
    std::condition_variable cv;
    std::exception_ptr error;
  };

  void worker_loop();
  void run_job(std::size_t shard);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;  // guards queue_, in_flight_; idle workers sleep on cv_task_
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  std::atomic<std::size_t> sleeping_{0};  // workers blocked on cv_task_
  std::atomic<std::size_t> queued_{0};    // queue_.size(), polled while spinning
  std::atomic<bool> stop_{false};
  Job job_;
};

// Output rows per tile of a row-sharded kernel: fine enough that a
// few-hundred-row projection spreads evenly over the threads claiming tiles
// (64-row tiles left a 320-row matrix at 5 tiles for 4 threads).
inline constexpr std::size_t kRowTile = 16;

// Multiply-adds below which a row-sharded kernel runs serially even with a
// pool. Waking helpers and claiming tiles costs microseconds, and the
// single-token decode kernels of a nano model (d_model 128, at most 64K
// multiply-adds) lost up to 2x on a pool when they fanned out; kernels from
// ~100K up gain. EXPERIMENTS.md ("One threading runtime") has the numbers.
inline constexpr std::size_t kMinParallelWork = std::size_t{1} << 17;

// Shards a kernel's output rows [0, rows) over the pool in kRowTile tiles,
// calling fn(shard, row_begin, row_end) with shard < row_shards(pool).
// row_work is the multiply-adds per output row (columns x tokens). Null
// pool, a single tile, or under kMinParallelWork in all: one serial
// fn(0, 0, rows). Each row must be computed independently of the others,
// so results never depend on the pool.
template <typename Fn>
void parallel_rows(ThreadPool* pool, std::size_t rows, std::size_t row_work, const Fn& fn) {
  const std::size_t tiles = (rows + kRowTile - 1) / kRowTile;
  if (pool == nullptr || tiles <= 1 || rows * row_work < kMinParallelWork) {
    fn(std::size_t{0}, std::size_t{0}, rows);
    return;
  }
  pool->parallel_for(0, tiles, [&](std::size_t shard, std::size_t tile) {
    fn(shard, tile * kRowTile, std::min(rows, (tile + 1) * kRowTile));
  });
}

// Number of distinct shard values parallel_rows can pass: the slices a
// ShardScratch holds.
inline std::size_t row_shards(const ThreadPool* pool) {
  return pool != nullptr ? pool->shard_count() : 1;
}

// Per-shard scratch of n elements for a row-sharded kernel, indexed by the
// shard parallel_rows passes. Each shard's slice is padded to whole 64-byte
// cache lines plus one, so shards writing their own slices never share a
// line (false sharing) whatever the allocation's alignment.
template <typename T>
class ShardScratch {
 public:
  ShardScratch(const ThreadPool* pool, std::size_t n)
      : stride_((n + kLine - 1) / kLine * kLine + kLine), data_(row_shards(pool) * stride_) {}
  T* operator[](std::size_t shard) { return data_.data() + shard * stride_; }

 private:
  static constexpr std::size_t kLine = 64 / sizeof(T);
  std::size_t stride_;
  std::vector<T> data_;
};

}  // namespace orinsim
