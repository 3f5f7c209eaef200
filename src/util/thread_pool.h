// Fixed-size thread pool.
//
// The parallel execution engine (util/execution_context.h) wraps this pool;
// nothing else should reach it directly. Each FL client task carries its
// own Rng stream so results are identical regardless of scheduling. On a
// single-core host the pool degrades to sequential execution.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dinar {

class ThreadPool {
 public:
  // `threads` is clamped to at least one worker: the default argument
  // forwards std::thread::hardware_concurrency(), which is allowed to
  // return 0, and a zero-worker pool would deadlock every submit().
  explicit ThreadPool(unsigned threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // True when called from inside a pool worker thread (any pool). Used to
  // run nested whole tasks inline instead of deadlocking on a saturated
  // queue.
  static bool on_worker_thread();

  // Schedules `fn` and returns a future for its completion/exception.
  std::future<void> submit(std::function<void()> fn);

  // Runs fn(i) for i in [0, n) across the pool and waits. Worker exceptions
  // are captured per index and the lowest-index one is rethrown on the
  // caller's thread, so the error surfaced is deterministic — not whichever
  // task happened to fail first under this schedule.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // The nested form of parallel_for, for a caller that is itself one of
  // this pool's workers. When no other worker is idle (or the caller is
  // not this pool's worker) it runs nothing and returns false, and the
  // caller runs its loop inline. Otherwise it publishes the n indices,
  // runs them itself while idle workers claim the rest, waits for the
  // claimed ones and returns true, rethrowing the lowest-index exception.
  // The caller only ever waits for indices another thread is already
  // running, so this cannot deadlock; queued whole tasks still go first.
  bool parallel_for_nested(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  // One nested loop open for helpers: indices are claimed lock-free off
  // `next`, completions are counted under `mu`.
  struct NestedLoop {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    std::size_t finished = 0;
    std::vector<std::exception_ptr> errors;
  };

  void worker_loop();
  void enqueue(std::function<void()> fn);
  // Claims and runs one index of `loop`; false when every index is taken.
  static bool run_one(NestedLoop& loop);
  // First open loop with an unclaimed index, dropping exhausted ones.
  // Caller holds mu_.
  std::shared_ptr<NestedLoop> claimable_loop_locked();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::shared_ptr<NestedLoop>> loops_;
  std::size_t idle_ = 0;  // workers blocked waiting for work
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace dinar
