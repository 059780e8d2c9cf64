#include "core/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>

#include "core/error.h"

namespace orinsim {

namespace {

// How long an idle worker, or a caller waiting for its helpers, polls before
// blocking. parallel_for calls arrive in bursts (one per kernel of a forward
// pass, a few tens of microseconds apart), and a futex sleep/wake round trip
// per helper would cost as much as a small kernel.
constexpr std::chrono::microseconds kSpin{50};

// Polls done() for up to kSpin, yielding the CPU between polls.
template <typename Pred>
bool spin_until(const Pred& done) {
  const auto until = std::chrono::steady_clock::now() + kSpin;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(2, std::thread::hardware_concurrency()) - 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true);
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  ORINSIM_CHECK(task != nullptr, "submit: null task");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ORINSIM_CHECK(!stop_.load(), "submit after shutdown");
    queue_.push_back(std::move(task));
    queued_.fetch_add(1);
    ++in_flight_;
  }
  // A spinning worker finds the task without a wake.
  if (sleeping_.load() > 0) cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {

// The pool whose parallel_for index the current thread is running, if any:
// a nested call on that pool runs inline.
thread_local const ThreadPool* tls_fanout_pool = nullptr;

}  // namespace

// Claims and runs indices of the open job until none are left.
void ThreadPool::run_job(std::size_t shard) {
  const ThreadPool* const outer = tls_fanout_pool;
  tls_fanout_pool = this;
  for (;;) {
    const std::size_t i = job_.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_.end) break;
    try {
      (*job_.fn)(shard, i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job_.mutex);
      if (!job_.error) job_.error = std::current_exception();
    }
    if (job_.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Empty critical section pairs with the predicate check under the lock
      // in the caller's wait, closing the check-then-sleep window.
      { std::lock_guard<std::mutex> lock(job_.mutex); }
      job_.cv.notify_one();
    }
  }
  tls_fanout_pool = outer;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for(begin, end,
               [&fn](std::size_t /*shard*/, std::size_t i) { fn(i); });
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  ORINSIM_CHECK(fn != nullptr, "parallel_for: null body");
  if (end - begin == 1 || workers_.empty() || tls_fanout_pool == this ||
      job_.owned.exchange(true, std::memory_order_acquire)) {
    std::exception_ptr first_error;
    for (std::size_t i = begin; i < end; ++i) {
      try {
        fn(0, i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  job_.fn = &fn;
  job_.end = end;
  job_.error = nullptr;
  job_.shards = std::min(shard_count(), end - begin);
  job_.next_shard.store(1, std::memory_order_relaxed);
  job_.next.store(begin, std::memory_order_relaxed);
  job_.pending.store(end - begin, std::memory_order_relaxed);
  // open before epoch: a worker that sees the new epoch must find the job
  // open, or it would skip the job as already seen.
  job_.open.store(true);
  job_.epoch.fetch_add(1);
  if (sleeping_.load() > 0) {
    // Taking the lock orders this wake after a sleeping worker's predicate
    // check, which already reads the new epoch (both sides are seq_cst).
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_task_.notify_all();
  }
  run_job(0);

  // Wait on index completion; then close the job and wait for helpers to
  // leave it, since the slot (and fn) must not be touched after return.
  if (!spin_until([&] { return job_.pending.load(std::memory_order_acquire) == 0; })) {
    std::unique_lock<std::mutex> lock(job_.mutex);
    job_.cv.wait(lock, [&] { return job_.pending.load(std::memory_order_acquire) == 0; });
  }
  job_.open.store(false);
  while (job_.helpers.load() != 0) std::this_thread::yield();
  const std::exception_ptr error = job_.error;
  job_.fn = nullptr;
  job_.owned.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = job_.epoch.load();
  const auto ready = [&] {
    return job_.epoch.load() != seen_epoch || queued_.load() > 0 || stop_.load();
  };
  for (;;) {
    if (!spin_until(ready)) {
      std::unique_lock<std::mutex> lock(mutex_);
      sleeping_.fetch_add(1);
      cv_task_.wait(lock, ready);
      sleeping_.fetch_sub(1);
    }
    const std::uint64_t epoch = job_.epoch.load();
    if (epoch != seen_epoch) {
      seen_epoch = epoch;
      // Join only while the job is open. The caller closes it before
      // waiting for helpers to reach 0, so either it sees this increment
      // or this thread sees the job closed (both sides are seq_cst). A newer
      // job that opened meanwhile is safe to join: its fields are set.
      job_.helpers.fetch_add(1);
      if (job_.open.load()) {
        const std::size_t shard = job_.next_shard.fetch_add(1, std::memory_order_relaxed);
        if (shard < job_.shards) run_job(shard);
      }
      job_.helpers.fetch_sub(1);
      continue;
    }
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) {
        if (stop_.load()) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.fetch_sub(1);
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace orinsim
