#include "fl/pipeline.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

#include "util/execution_context.h"

namespace dinar::fl {

const char* to_string(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kStream: return "stream";
  }
  return "?";
}

RoundPipeline::RoundPipeline(PipelineMode mode, const ExecutionContext* exec)
    : mode_(mode), exec_(exec) {}

namespace {

// Shared state between the coordinator and the in-flight tasks of one
// streaming run(). Tasks only touch their own slot plus the mutex/cv, so
// the coordinator's ascending scan needs no per-slot atomics.
struct StreamState {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<bool> done;
  std::vector<std::exception_ptr> error;
};

}  // namespace

void RoundPipeline::run(std::size_t n, const std::function<void(std::size_t)>& task,
                        const std::function<void(std::size_t)>& commit) const {
  if (n == 0) return;

  // Without real workers there is nothing to overlap; the inline form
  // interleaves task(i); commit(i), which observably matches the threaded
  // schedule (commit i always runs after task i and commit i-1).
  if (exec_ == nullptr || !exec_->parallel() || ThreadPool::on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) {
      task(i);
      commit(i);
    }
    return;
  }

  // Threaded stream: every task is its own pool submission; the
  // coordinator (this thread) sweeps the indices in ascending order,
  // sleeping on the cv until the next one finishes, and commits it
  // immediately — so commits overlap whatever tail is still running.
  StreamState st;
  st.done.assign(n, false);
  st.error.assign(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    exec_->submit([&st, &task, i] {
      std::exception_ptr err;
      try {
        task(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(st.mu);
      st.done[i] = true;
      st.error[i] = err;
      st.cv.notify_all();
    });
  }

  const auto drain = [&st, n] {
    std::unique_lock<std::mutex> lock(st.mu);
    st.cv.wait(lock, [&st, n] {
      for (std::size_t i = 0; i < n; ++i)
        if (!st.done[i]) return false;
      return true;
    });
  };

  std::exception_ptr failure;  // lowest-index task error, if any
  for (std::size_t i = 0; i < n; ++i) {
    {
      std::unique_lock<std::mutex> lock(st.mu);
      st.cv.wait(lock, [&st, i] { return st.done[i]; });
      failure = st.error[i];
    }
    // We sweep ascending, so the first error seen is the lowest-index one;
    // commits stop here (the round is aborting) but the remaining tasks
    // must still drain before their captured references go out of scope.
    if (failure) break;
    try {
      commit(i);
    } catch (...) {
      drain();
      throw;
    }
  }
  drain();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace dinar::fl
