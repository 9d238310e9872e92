// Process-wide metrics registry.
//
// One obs::Registry per process holds named counters, gauges, and
// fixed-bucket latency histograms.  Registration (registry().counter("x"))
// is mutex-guarded and allocates; instruments are expected to register
// once (typically through a function-local static reference) and then
// update lock-free forever: a counter increment or histogram record is a
// single relaxed atomic add into a per-thread-sharded cache-line-padded
// cell, with zero heap work after registration.  snapshot() merges the
// shards under the registration mutex and returns a deterministic
// (name-sorted) view, so the merged totals are identical no matter how
// many threads contributed.
//
// The registry is process-lifetime and monotonic; the per-run
// mc::SimCounter breakdowns remain the per-run view over the same
// increment sites (see docs/observability.md).  Timing instruments
// (ScopedTimer) are additionally gated behind timing_enabled() so the
// disarmed hot path pays one relaxed load and no clock reads.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace moheco::obs {

/// Number of per-instrument shard cells.  Threads map onto shards by
/// thread_ordinal() modulo kShards; contention only appears when more
/// threads than shards hit the *same* instrument simultaneously.
inline constexpr int kShards = 16;

/// Log2 latency buckets: bucket i counts values v (in the instrument's
/// unit, microseconds by convention) with 2^(i-1) <= v < 2^i (bucket 0
/// counts v == 0, the last bucket is unbounded above).
inline constexpr int kHistogramBuckets = 32;

namespace detail {
struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> value{0};
};
struct alignas(64) HistogramShard {
  std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
};
int shard_slot();
}  // namespace detail

/// Monotonic counter, sharded per thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[detail::shard_slot()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;

 private:
  detail::ShardCell shards_[kShards];
};

/// Last-writer-wins instantaneous value (queue depth, live sessions).
/// Set semantics do not shard, so a gauge is one atomic.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed log2-bucket histogram, sharded per thread.
class Histogram {
 public:
  void record(std::uint64_t v) {
    auto& shard = shards_[detail::shard_slot()];
    shard.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(v, std::memory_order_relaxed);
  }
  /// Bucket index for a value: 0 for v == 0, else min(bit_width(v),
  /// kHistogramBuckets - 1).
  static int bucket_index(std::uint64_t v);
  /// Inclusive upper bound of bucket i (UINT64_MAX for the last bucket).
  static std::uint64_t bucket_upper_bound(int i);

 private:
  friend class Registry;
  detail::HistogramShard shards_[kShards];
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t buckets[kHistogramBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  /// Accumulates `other` bucketwise; merge is commutative and associative,
  /// so any merge order over any sharding yields the same snapshot.
  void merge(const HistogramSnapshot& other);
  /// {"count":N,"sum":S,"buckets":[[upper_bound,count],...]} with only the
  /// nonzero buckets listed, in ascending bound order.
  std::string to_json() const;
};

/// Deterministic point-in-time view: every section sorted by name.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// {"counters":{...},"gauges":{...},"histograms":{...}}
  std::string to_json() const;
};

class Registry {
 public:
  /// Returns the named instrument, creating it on first request.  The
  /// reference is stable for the process lifetime; callers cache it
  /// (e.g. in a function-local static) so the hot path never locks.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  Snapshot snapshot() const;

 private:
  struct Impl;
  Impl& impl() const;
};

/// The process-wide registry.
Registry& registry();

/// Writes registry().snapshot().to_json() to `path` (temp file + atomic
/// rename, so a concurrent reader never sees a torn dump).  Returns false
/// after logging on I/O failure.
bool write_metrics_json(const std::string& path);

/// Global gate for timing instruments: when false, ScopedTimer costs one
/// relaxed load and takes no clock reads.  Enabled by --trace/--metrics
/// flags and by moheco_d (op=stats serves latency histograms).
bool timing_enabled();
void set_timing_enabled(bool enabled);

/// Monotonic nanoseconds (steady clock) for span/timer bookkeeping.
std::uint64_t now_ns();

/// Records elapsed microseconds into `hist` on destruction when timing
/// was enabled at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist)
      : hist_(timing_enabled() ? &hist : nullptr),
        start_ns_(hist_ ? now_ns() : 0) {}
  ~ScopedTimer() {
    if (hist_) hist_->record((now_ns() - start_ns_) / 1000);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::uint64_t start_ns_;
};

}  // namespace moheco::obs
