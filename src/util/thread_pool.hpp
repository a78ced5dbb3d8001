// Fixed-size worker pool for host-side parallelism (the suite runner's
// per-matrix rows and per-kernel arms).  Simulated GPU work stays
// single-threaded per task; the pool only overlaps independent
// simulations across host cores.
//
// Tasks may submit further tasks, so workers never block on each other:
// a task either runs to completion or enqueues follow-up work.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/types.hpp"

namespace nmdt {

class ThreadPool {
 public:
  /// `threads <= 0` selects default_jobs().
  explicit ThreadPool(int threads = 0);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a task.  Safe from any thread, including pool workers.
  void submit(std::function<void()> task);

  /// Block until the queue is empty and every worker is idle.  Only
  /// meaningful when no other thread is concurrently submitting.
  void wait_idle();

  /// Hardware concurrency clamped to at least 1 (the value used when a
  /// caller passes jobs <= 0).
  static int default_jobs();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< queue became non-empty / stopping
  std::condition_variable idle_cv_;   ///< a worker went idle
  usize active_ = 0;                  ///< tasks currently executing
  bool stop_ = false;
};

/// Parallel index loop: run fn(i) for every i in [0, n) on up to `jobs`
/// threads (<= 0 selects ThreadPool::default_jobs()).  Runs inline —
/// no pool, no synchronization — when one thread suffices.  Indices are
/// claimed from a shared counter, so callers must not depend on
/// assignment of indices to threads; blocks until every index ran.
/// Every index runs even when some throw; afterwards the exception from
/// the LOWEST throwing index is rethrown on the caller — a deterministic
/// choice at any job count (which throw happens "first" in wall-clock
/// depends on scheduling; the lowest index does not).
///
/// Cancellation: the caller's installed CancelToken (util/cancel.hpp)
/// is captured at entry and re-installed on every pool worker, so fn
/// can poll it no matter which thread runs the index; the loop itself
/// polls before each claim.  Once the token fires, remaining indices
/// are SKIPPED (the one documented exception to "every index runs" —
/// the caller is abandoning the whole unit of work, so partial
/// coverage can no longer be observed) and the cancellation error is
/// rethrown unless a lower-index real failure beat it.
void run_indexed(int jobs, i64 n, const std::function<void(i64)>& fn);

}  // namespace nmdt
