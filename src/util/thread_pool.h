#ifndef SCCF_UTIL_THREAD_POOL_H_
#define SCCF_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sccf {

/// Fixed-size worker pool. Tasks are void() closures. Intended for
/// data-parallel loops (see ParallelFor), not for fine-grained task
/// graphs; callers track their own tasks' completion.
class ThreadPool {
 public:
  /// Pre: num_threads >= 1.
  explicit ThreadPool(size_t num_threads);
  /// Runs every queued task (including ones they submit), then joins the
  /// workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker. Safe to call from
  /// inside a running task (nested submit): the task is queued like any
  /// other. Tasks must not throw — an escaping exception terminates the
  /// process; use ParallelFor/ParallelForBlocked for exception
  /// propagation.
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  bool InWorker() const;

  /// Process-wide pool sized to the hardware concurrency.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_cv_;
  std::queue<std::function<void()>> tasks_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for i in [begin, end) across the global pool, splitting the
/// range into at most num_threads() contiguous blocks. The calling thread
/// and num_blocks - 1 pool tasks claim blocks until none are left, so the
/// caller always runs at least one block and a worker that wakes late
/// finds its share already done. Blocks until all iterations complete,
/// waiting only for this call's own blocks (concurrent callers never wait
/// on each other's work). fn must be safe to call concurrently for
/// distinct i. Called from inside a global-pool worker, the whole range
/// runs inline on that worker, in order: a worker waiting on queued
/// sub-tasks could otherwise deadlock the pool.
///
/// If fn throws, the throwing block stops at the exception but all other
/// blocks still run; the first observed exception is rethrown in the
/// caller once the range has drained (additional exceptions are
/// dropped). An empty range is a no-op.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

/// Like ParallelFor but hands each thread a [lo, hi) block, which lets the
/// callee keep per-block scratch state. Same scheduling and exception
/// semantics.
void ParallelForBlocked(size_t begin, size_t end,
                        const std::function<void(size_t, size_t)>& fn);

}  // namespace sccf

#endif  // SCCF_UTIL_THREAD_POOL_H_
