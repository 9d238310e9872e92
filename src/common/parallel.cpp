#include "src/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace moheco {

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::mutex mutex;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  const std::function<void(int, std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::size_t grain = 1;
  std::atomic<std::size_t> next{0};
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
      drain_range(id);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--active == 0) cv_done.notify_all();
      }
    }
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
    impl_->error = nullptr;
    impl_->active = num_workers_;
    ++impl_->generation;
  }
  impl_->cv_work.notify_all();
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->cv_done.wait(lock, [&] { return impl_->active == 0; });
  impl_->fn = nullptr;
  if (impl_->error) std::rethrow_exception(impl_->error);
}

}  // namespace moheco
