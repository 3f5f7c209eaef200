#include "util/thread_pool.h"

#include <algorithm>

namespace dinar {
namespace {

// The pool whose worker this thread is (null off the pools).
thread_local const ThreadPool* t_pool = nullptr;

}  // namespace

bool ThreadPool::on_worker_thread() { return t_pool != nullptr; }

ThreadPool::ThreadPool(unsigned threads) {
  // hardware_concurrency() may legally return 0 (the header's default
  // argument forwards it); a pool with zero workers would never drain its
  // queue, so submit()/parallel_for() would block forever.
  const unsigned n = std::max(1u, threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(fn));
  }
  cv_.notify_one();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> fut = promise->get_future();
  enqueue([promise, fn = std::move(fn)] {
    try {
      fn();
      promise->set_value();
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return fut;
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Shared completion state: a counter the caller waits on, plus one
  // exception slot per index so errors survive the task's stack unwinding
  // and are rethrown deterministically (lowest index first).
  struct Sync {
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining;
    std::vector<std::exception_ptr> errors;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining = n;
  sync->errors.resize(n);

  for (std::size_t i = 0; i < n; ++i) {
    enqueue([sync, &fn, i] {
      try {
        fn(i);
      } catch (...) {
        sync->errors[i] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(sync->mu);
      if (--sync->remaining == 0) sync->done.notify_all();
    });
  }

  std::vector<std::exception_ptr> errors;
  {
    std::unique_lock<std::mutex> lock(sync->mu);
    sync->done.wait(lock, [&] { return sync->remaining == 0; });
    // Taken out so the errors die on this thread, not with whichever
    // task drops the last reference to `sync`.
    errors = std::move(sync->errors);
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

bool ThreadPool::parallel_for_nested(std::size_t n,
                                     const std::function<void(std::size_t)>& fn) {
  if (t_pool != this || n < 2) return false;
  auto loop = std::make_shared<NestedLoop>();
  loop->fn = &fn;
  loop->n = n;
  loop->errors.resize(n);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Workers woken for queued tasks are not free to help.
    if (idle_ <= tasks_.size()) return false;
    loops_.push_back(loop);
  }
  cv_.notify_all();
  while (run_one(*loop)) {
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(loops_, loop);  // a helper may have dropped it already
  }
  // Every index is claimed now; wait for the ones helpers are running.
  std::vector<std::exception_ptr> errors;
  {
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->done.wait(lock, [&] { return loop->finished == n; });
    errors = std::move(loop->errors);  // see parallel_for
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return true;
}

bool ThreadPool::run_one(NestedLoop& loop) {
  const std::size_t i = loop.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= loop.n) return false;
  try {
    (*loop.fn)(i);
  } catch (...) {
    loop.errors[i] = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(loop.mu);
  if (++loop.finished == loop.n) loop.done.notify_all();
  return true;
}

std::shared_ptr<ThreadPool::NestedLoop> ThreadPool::claimable_loop_locked() {
  std::erase_if(loops_, [](const std::shared_ptr<NestedLoop>& l) {
    return l->next.load(std::memory_order_relaxed) >= l->n;
  });
  return loops_.empty() ? nullptr : loops_.front();
}

void ThreadPool::worker_loop() {
  t_pool = this;
  while (true) {
    std::function<void()> task;
    std::shared_ptr<NestedLoop> loop;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_;
      // The loop is picked inside the predicate, under the lock: its claim
      // counter moves without the lock, so a second look after the wait
      // could find every loop exhausted and nothing to run.
      cv_.wait(lock, [&] {
        if (stop_ || !tasks_.empty()) return true;
        loop = claimable_loop_locked();
        return loop != nullptr;
      });
      --idle_;
      if (!tasks_.empty()) {
        // Queued whole tasks go before helping a nested loop.
        task = std::move(tasks_.front());
        tasks_.pop();
        loop.reset();
      } else if (loop == nullptr) {
        return;  // stopping with nothing queued
      }
    }
    if (task)
      task();
    else
      run_one(*loop);
  }
}

}  // namespace dinar
