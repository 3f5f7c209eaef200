// Streaming round engine (DESIGN.md §13).
//
// The original barriered round protocol (PR 3) ran every client exchange
// as a phase-A task, waited for ALL of them, then replayed
// validation/commit in a sequential phase B — so the fastest client's
// commit work waited on the slowest straggler, synchronization the
// paper's personalization loop does not require.
//
// RoundPipeline treats each exchange completion as an *event*: the moment
// client idx's task finishes AND every commit below idx has run,
// commit(idx) runs on the coordinator thread — folding the update into
// its shard's in-progress accumulator (ShardAccumulator) while later
// clients are still training or sleeping on a slow link. The determinism
// argument splits the schedule in two:
//
//   compute order  — tasks run in any order on any thread count; they are
//                    isolated by construction (randomness keyed by
//                    (seed, round, client), accounting deferred into
//                    per-client receipts);
//   commit order   — strictly ascending index, exactly the old phase B, so
//                    every order-sensitive step (stats sums, validation,
//                    acceptance, absorb) sees the identical sequence.
//
// Hence the streaming schedule is bit-identical to the barriered one for
// any thread count — the pipeline only changes *when* commits run relative
// to the task fan-out, never their order or inputs. The legacy barrier
// mode was removed after its one-release bisection window; kStream is the
// only schedule, and the enum remains as the seam a future one would use.
//
// Error contract: a task exception aborts the round. The coordinator stops
// committing at the first failed index, drains every outstanding task
// (references into the caller's frame stay valid), and rethrows the
// lowest failed index's exception — the same deterministic surfacing rule
// as ThreadPool::parallel_for. Commits below the failed index have already
// run, but a task exception aborts the whole round, so no committed state
// survives to expose that.
#pragma once

#include <cstddef>
#include <functional>

namespace dinar {
class ExecutionContext;
}

namespace dinar::fl {

enum class PipelineMode {
  kStream,  // event-driven: commits overlap the straggler tail (the only mode)
};
const char* to_string(PipelineMode mode);

class RoundPipeline {
 public:
  // `exec` may be null (sequential). The pipeline holds the pointer only
  // for the duration of each run() call.
  RoundPipeline(PipelineMode mode, const ExecutionContext* exec);

  PipelineMode mode() const { return mode_; }

  // Runs task(idx) for idx in [0, n) across the pool and commit(idx) for
  // every idx strictly in ascending order on the calling thread:
  // commit(idx) runs as soon as task(idx) and commits [0, idx) are done.
  // Returns only after every task AND every commit finished (or the round
  // aborted — see the error contract above). Sequential contexts and pool
  // workers degrade to an inline loop whose observable behavior matches
  // the threaded one.
  void run(std::size_t n, const std::function<void(std::size_t)>& task,
           const std::function<void(std::size_t)>& commit) const;

 private:
  PipelineMode mode_;
  const ExecutionContext* exec_;
};

}  // namespace dinar::fl
