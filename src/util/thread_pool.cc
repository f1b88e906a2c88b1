#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "util/logging.h"

namespace sccf {

namespace {

/// The pool whose WorkerLoop runs on this thread, if any.
thread_local const ThreadPool* tls_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  SCCF_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  task_cv_.notify_one();
}

bool ThreadPool::InWorker() const { return tls_worker_of == this; }

void ThreadPool::WorkerLoop() {
  tls_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(
      std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn) {
  ParallelForBlocked(begin, end, [&fn](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) fn(i);
  });
}

void ParallelForBlocked(size_t begin, size_t end,
                        const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  ThreadPool& pool = ThreadPool::Global();
  const size_t n = end - begin;
  const size_t max_blocks = std::min(n, pool.num_threads());
  if (max_blocks <= 1 || pool.InWorker()) {
    fn(begin, end);
    return;
  }

  // This call's own state. The caller and num_blocks - 1 pool tasks all
  // claim blocks from `next` until none are left, so a worker that wakes
  // late finds the work already done instead of delaying the caller. The
  // caller waits on this call's completion count only, never on unrelated
  // callers' tasks. Shared ownership lets a
  // late task touch the state after the caller has returned (it never
  // touches `fn` then: every block is claimed).
  struct Call {
    const std::function<void(size_t, size_t)>* fn = nullptr;
    size_t begin = 0;
    size_t end = 0;
    size_t block = 0;
    size_t num_blocks = 0;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t done = 0;                 // guarded by mu
    std::exception_ptr first_error;  // guarded by mu

    void ClaimBlocks() {
      for (size_t b = next++; b < num_blocks; b = next++) {
        const size_t lo = begin + b * block;
        std::exception_ptr error;
        try {
          (*fn)(lo, std::min(end, lo + block));
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mu);
        if (error && !first_error) first_error = error;
        if (++done == num_blocks) done_cv.notify_one();
      }
    }
  };
  auto call = std::make_shared<Call>();
  call->fn = &fn;
  call->begin = begin;
  call->end = end;
  call->block = (n + max_blocks - 1) / max_blocks;
  call->num_blocks = (n + call->block - 1) / call->block;
  for (size_t t = 1; t < call->num_blocks; ++t) {
    pool.Submit([call] { call->ClaimBlocks(); });
  }
  call->ClaimBlocks();
  std::unique_lock<std::mutex> lock(call->mu);
  call->done_cv.wait(lock, [&] { return call->done == call->num_blocks; });
  if (call->first_error) std::rethrow_exception(call->first_error);
}

}  // namespace sccf
