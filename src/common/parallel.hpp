// Worker pool for Monte-Carlo batch evaluation.
//
// Two entry points share one set of persistent workers:
//   - parallel_for(count, fn): a homogeneous index range.  Workers claim
//     contiguous chunks of indices from an atomic counter (not one index at
//     a time), so cheap per-item work does not serialize on the counter.
//   - parallel_for_sharded(queues, fn): a sharded job set with stealing.
//     Each worker first drains its own queue front-to-back, then steals
//     from the other queues round-robin.  This is the substrate for the
//     EvalScheduler's sticky candidate->worker affinity: items routed to a
//     worker's own queue run on that worker unless load imbalance forces a
//     steal.
//
// Each worker passes its stable worker id to the callback so callers can
// keep per-worker state (e.g. the EvalScheduler's per-worker session
// caches).  Results must be written to per-item slots (or accumulated with
// atomics) so the outcome is independent of scheduling.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

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

  /// Sharded claiming with work stealing: `queues[s]` lists the item ids
  /// owned by shard s.  Worker w drains queues[w % queues.size()] in order
  /// first, then steals from the remaining queues round-robin (one item per
  /// claim, so a long stolen queue still spreads).  Runs fn(worker_id, item)
  /// exactly once per queued item; blocks until all items finish.  Item ids
  /// are caller-defined (duplicates across queues are run once per listing).
  /// Exceptions thrown by fn are rethrown (first one wins).
  void parallel_for_sharded(std::span<const std::vector<std::size_t>> queues,
                            const std::function<void(int, std::size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_;
  int num_workers_;
};

}  // namespace moheco
