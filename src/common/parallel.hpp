// Worker pool for Monte-Carlo batch evaluation.
//
// One entry point, parallel_for(count, fn), drains an index range on a set
// of persistent workers.  Workers claim contiguous chunks of `grain`
// indices from one shared atomic counter (not one index at a time), so
// cheap per-item work does not serialize on the counter; whichever worker
// is free takes the next chunk.
//
// Each worker passes its stable worker id to the callback so callers can
// keep per-worker state (e.g. the EvalScheduler's per-worker session
// caches).  Results must be written to per-item slots (or accumulated with
// atomics) so the outcome is independent of scheduling.
#pragma once

#include <cstddef>
#include <functional>

namespace moheco {

class ThreadPool {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// Runs fn(worker_id, index) for every index in [0, count); blocks until
  /// all items finish.  fn must be thread-safe across distinct indices.
  /// `grain` is the number of indices claimed per atomic increment; 0 picks
  /// one automatically from count and the worker count.  Exceptions thrown
  /// by fn are rethrown (first one wins).
  void parallel_for(std::size_t count,
                    const std::function<void(int, std::size_t)>& fn,
                    std::size_t grain = 0);

 private:
  struct Impl;
  Impl* impl_;
  int num_workers_;
};

}  // namespace moheco
