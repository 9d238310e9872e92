#include "src/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace moheco {

struct ThreadPool::Impl {
  /// Per-shard claim cursor, cache-line aligned so neighbouring shards do
  /// not false-share under concurrent claiming.
  struct alignas(64) ShardCursor {
    std::atomic<std::size_t> next{0};
  };

  std::vector<std::thread> workers;
  std::mutex mutex;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  const std::function<void(int, std::size_t)>* fn = nullptr;
  // parallel_for state
  std::size_t count = 0;
  std::size_t grain = 1;
  std::atomic<std::size_t> next{0};
  // parallel_for_sharded state (non-null queues selects the sharded mode)
  const std::vector<std::size_t>* queues = nullptr;
  std::size_t num_queues = 0;
  ShardCursor* cursors = nullptr;
  std::size_t generation = 0;
  int active = 0;
  bool stop = false;
  std::exception_ptr error;

  void run_item(int id, std::size_t item) {
    try {
      (*fn)(id, item);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
    }
  }

  void drain_range(int id) {
    for (;;) {
      const std::size_t base = next.fetch_add(grain, std::memory_order_relaxed);
      if (base >= count) break;
      const std::size_t end = std::min(count, base + grain);
      for (std::size_t i = base; i < end; ++i) run_item(id, i);
    }
  }

  void drain_sharded(int id) {
    // Own queue first (pass 0), then steal round-robin.  Cursors only grow,
    // so a queue drained during an earlier pass stays drained.
    const std::size_t home = static_cast<std::size_t>(id) % num_queues;
    for (std::size_t pass = 0; pass < num_queues; ++pass) {
      const std::size_t q = (home + pass) % num_queues;
      const std::vector<std::size_t>& queue = queues[q];
      for (;;) {
        const std::size_t k =
            cursors[q].next.fetch_add(1, std::memory_order_relaxed);
        if (k >= queue.size()) break;
        run_item(id, queue[k]);
      }
    }
  }

  void worker_main(int id) {
    std::size_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv_work.wait(lock, [&] {
          return stop || generation != seen_generation;
        });
        if (stop) return;
        seen_generation = generation;
      }
      if (queues != nullptr) {
        drain_sharded(id);
      } else {
        drain_range(id);
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--active == 0) cv_done.notify_all();
      }
    }
  }

  /// Dispatches the prepared job state to the workers and blocks until they
  /// all finish; rethrows the first captured exception.
  void dispatch_and_wait() {
    cv_work.notify_all();
    std::unique_lock<std::mutex> lock(mutex);
    cv_done.wait(lock, [&] { return active == 0; });
    fn = nullptr;
    queues = nullptr;
    num_queues = 0;
    cursors = nullptr;
    if (error) std::rethrow_exception(error);
  }
};

ThreadPool::ThreadPool(int threads) : impl_(new Impl) {
  num_workers_ = threads > 0
                     ? threads
                     : static_cast<int>(std::thread::hardware_concurrency());
  if (num_workers_ < 1) num_workers_ = 1;
  impl_->workers.reserve(static_cast<std::size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(int, std::size_t)>& fn,
                              std::size_t grain) {
  if (count == 0) return;
  if (grain == 0) {
    // Roughly 8 claims per worker balances counter traffic against tail
    // imbalance; the cap keeps one oversized range from starving the pool.
    grain = std::clamp<std::size_t>(
        count / (8 * static_cast<std::size_t>(num_workers_)), 1, 1024);
  }
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->fn = &fn;
    impl_->count = count;
    impl_->grain = grain;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->queues = nullptr;
    impl_->num_queues = 0;
    impl_->error = nullptr;
    impl_->active = num_workers_;
    ++impl_->generation;
  }
  impl_->dispatch_and_wait();
}

void ThreadPool::parallel_for_sharded(
    std::span<const std::vector<std::size_t>> queues,
    const std::function<void(int, std::size_t)>& fn) {
  if (queues.empty()) return;
  std::size_t total = 0;
  for (const auto& q : queues) total += q.size();
  if (total == 0) return;
  auto cursors = std::make_unique<Impl::ShardCursor[]>(queues.size());
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->fn = &fn;
    impl_->queues = queues.data();
    impl_->num_queues = queues.size();
    impl_->cursors = cursors.get();
    impl_->error = nullptr;
    impl_->active = num_workers_;
    ++impl_->generation;
  }
  impl_->dispatch_and_wait();
}

}  // namespace moheco
