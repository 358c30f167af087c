// thread_pool.hpp — a small fixed-size worker pool with a deterministic
// parallel-for primitive.
//
// The replacement-path engine runs two O(n·m) BFS sweeps (one BFS per fault
// site, one off-path BFS per vertex). Both are embarrassingly parallel:
// every iteration writes a disjoint output slot, so the result is identical
// regardless of scheduling. parallel_for publishes ONE job descriptor (a
// type-erased pointer to the caller's callable) and the workers — plus the
// calling thread itself — claim contiguous index blocks off a shared atomic
// cursor. A steady-state call therefore allocates nothing: no per-shard
// task closures, no std::function conversions, no queue nodes. Exceptions
// raised by any iteration are captured and rethrown on the caller's thread;
// the first capture also fails the job fast — no participant claims further
// blocks — matching the serial shortcut, which stops at the throwing
// iteration. Blocks already in flight on other participants finish
// normally, so iteration bodies holding pooled scratch must release it by
// RAII (PoolLease) for the error path to be leak-free.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/fault_inject.hpp"

namespace ftb {

/// Fixed-size worker pool. Threads are created once and reused; the pool
/// joins them on destruction. Concurrent parallel_for calls (e.g. two
/// engines built simultaneously on the global pool) are safe: each call
/// completes through its own caller thread even when the workers' single
/// attention slot is claimed by another job.
class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const {
    return std::max<std::size_t>(1, workers_.size());
  }

  /// Runs fn(i) for every i in [0, count). Blocks until all iterations are
  /// done. The first exception thrown by any iteration is rethrown here.
  /// Iterations are split into up to `shards_per_thread * thread_count()`
  /// contiguous blocks claimed dynamically off a shared cursor — load
  /// balancing on skewed work without any per-block allocation. The
  /// calling thread participates in the work. Iterations with disjoint
  /// side effects make the result deterministic regardless of scheduling
  /// (asserted by util_test).
  template <class Fn>
  void parallel_for(std::size_t count, const Fn& fn,
                    std::size_t shards_per_thread = 8) {
    run_job(count, shards_per_thread, &invoke_thunk<Fn>,
            static_cast<const void*>(&fn));
  }

  /// The process-wide default pool (sized to hardware concurrency).
  static ThreadPool& global();

 private:
  using BlockFn = void (*)(const void* ctx, std::size_t i);

  template <class Fn>
  static void invoke_thunk(const void* ctx, std::size_t i) {
    // Debug-build injection point: a task that throws here must surface
    // through the Job's exception capture on the caller's thread, leaving
    // the pool reusable (pinned by tests/fault_inject_test.cpp).
    fault::maybe_fail_task();
    (*static_cast<const Fn*>(ctx))(i);
  }

  /// One in-flight parallel_for, living on the caller's stack. Completion
  /// is tracked purely by participants: a claimed block belongs to a
  /// participant inside drain(), so "cursor exhausted (the caller's own
  /// drain returned) ∧ refs == 0" ⇔ every block has been executed. refs is
  /// guarded by the pool mutex — join/leave and the caller's wait all
  /// serialize on it, so no completion signal can be missed and no
  /// participant can touch the job after the caller reclaims it.
  struct Job {
    BlockFn fn = nullptr;
    const void* ctx = nullptr;
    std::size_t count = 0;       // total iterations
    std::size_t block = 0;       // iterations per claimed block
    std::size_t num_blocks = 0;  // ceil(count / block)
    std::atomic<std::size_t> next_block{0};  // shared claim cursor
    std::size_t refs = 0;        // workers inside drain(); guarded by mu_
    std::exception_ptr error;    // first failure (under err_mu)
    std::mutex err_mu;
    /// Set (after `error`) by the first capturing participant: every drain
    /// checks it before claiming another block, so a failed job abandons
    /// its unclaimed tail instead of burning through it — and a nested
    /// inner job that fails cannot stall behind sibling outer blocks that
    /// would only feed a doomed result.
    std::atomic<bool> failed{false};
  };

  void run_job(std::size_t count, std::size_t shards_per_thread, BlockFn fn,
               const void* ctx);
  /// Claims and executes blocks until the cursor runs dry.
  void drain(Job& job);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;       // workers: new job or stop
  std::condition_variable done_cv_;  // callers: some job finished & released
                                     // (notify_all — several callers may
                                     // wait here concurrently, each on its
                                     // own job)
  Job* current_job_ = nullptr;       // guarded by mu_
  std::uint64_t job_seq_ = 0;        // guarded by mu_
  bool stop_ = false;                // guarded by mu_
};

}  // namespace ftb
