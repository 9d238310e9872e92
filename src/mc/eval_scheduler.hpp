// Generation-wide Monte-Carlo evaluation scheduler.
//
// Every Monte-Carlo simulation of a run goes through one EvalScheduler,
// under one scheduling policy.  Refining candidates one by one would make
// every OCBA delta-increment a pool-wide barrier over a tiny batch, and
// pinning one evaluator session per candidate per worker would keep S x W
// sized netlists and factorizations alive at once.  The scheduler avoids
// both and keeps the evaluation pipeline warm end-to-end:
//
//   - Batching: callers enqueue() all candidates' sample ranges for a round
//     and flush() once.  The whole round becomes one job-ordered task list
//     (chunks of at most 64 samples) drained by ThreadPool::parallel_for
//     with no per-candidate barriers; whichever worker is free claims the
//     next task.  Nominal screens are jobs too (enqueue_screen), so a
//     deferred stage-2 batch of generation g and the screens of generation
//     g+1 can run as ONE overlapping job set.
//   - Session caching: sessions live in per-worker LRU caches keyed by
//     candidate id, with a fallback that adopts a cached session of the
//     same (problem, x) under a new id.  Peak live sessions are bounded by
//     sessions_per_worker x workers no matter how many candidates are in
//     flight, and hot candidates keep their sessions warm across rounds and
//     generations.  There is no worker affinity: a candidate's tasks run
//     wherever a worker is free, because on the paper's Example 1 workload
//     pinning candidates to workers changed neither session opens nor wall
//     time.  An evicted session leaves nothing behind: a later miss for the
//     same x reopens it cold through YieldProblem::open().  MOHECO screens
//     each fresh candidate once and rarely revisits one after eviction (on
//     Example 1 a revival store served 0.22% of opens), so no warm-start
//     state is kept across evictions.
//
// Determinism: enqueue() consumes the candidate's sample stream immediately
// (batch index and size are fixed at enqueue time), every sample of a batch
// is evaluated exactly once by one Session::evaluate() call, and pass
// counts are integers summed in job order -- so yield tallies are
// bit-identical across worker counts, task placement, cache capacities,
// and flush boundaries (one flush per round or several rounds merged into
// one job set).  This relies on the YieldProblem session-cache contract
// (see src/mc/yield_problem.hpp): sample results are pure functions of
// (x, xi).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/linalg/matrix.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/sim_counter.hpp"
#include "src/mc/yield_problem.hpp"

namespace moheco::mc {

struct SchedulerOptions {
  /// Capacity of each worker's session cache (LRU eviction).  Peak live
  /// sessions are bounded by sessions_per_worker * num_workers; a miss on a
  /// full cache evicts the least-recently-used session before opening the
  /// replacement.
  int sessions_per_worker = 8;
};

class EvalScheduler {
 public:
  explicit EvalScheduler(ThreadPool& pool, SchedulerOptions options = {});

  ThreadPool& pool() const { return *pool_; }
  int num_workers() const { return pool_->num_workers(); }
  const SchedulerOptions& options() const { return options_; }

  /// Queues `count` fresh samples of `tally`'s stream for the next flush().
  /// The batch is drawn immediately (the stream position is consumed at
  /// enqueue time), so results do not depend on flush scheduling.  The
  /// tally must stay alive until the flush (see retain()).  `phase` is the
  /// budget phase the batch is counted under; kOther defers to the phase
  /// passed to flush().  No-op when count <= 0.
  void enqueue(CandidateYield& tally, long long count, const McOptions& options,
               SimPhase phase = SimPhase::kOther);

  /// Queues an externally drawn sample batch for `tally` (the reference-MC
  /// path draws its own seed-defined streams rather than the candidate's);
  /// rows are evaluated at flush() like any other batch.
  void enqueue_samples(CandidateYield& tally, linalg::MatrixD samples,
                       SimPhase phase = SimPhase::kOther);

  /// Queues the nominal acceptance-sampling screen of `tally` for the next
  /// flush() (no-op when already screened).  Screens ride in the same job
  /// set as sample batches, which is what lets the optimizer overlap the
  /// previous generation's deferred stage-2 flush with the next
  /// generation's screens.
  void enqueue_screen(CandidateYield& tally);

  /// Keeps `tally` alive until the end of the next flush() (or
  /// discard_pending()).  Callers that defer a flush across an ownership
  /// boundary -- e.g. the optimizer's pipelined loop, where a losing
  /// candidate can be dropped while its stage-2 batch is still pending --
  /// must retain the candidates they enqueued.
  void retain(std::shared_ptr<CandidateYield> tally);

  /// Evaluates every queued job as one pool-wide chunked job set, updates
  /// the tallies, and counts batch samples under their enqueue phase (jobs
  /// enqueued with kOther fall back to `phase`); screens always count under
  /// kScreen.  Scheduler events (cache hits, cold opens) incurred by
  /// the flush are added to `sims` as well.  A throwing session open or
  /// evaluation is contained to its own job: the candidate is marked failed
  /// with a FailEvent reason code (and counted in `sims`), its job is
  /// dropped untallied, and every other job tallies bit-identically to a
  /// flush that never contained the failing one.  Only pool-infrastructure
  /// errors still propagate (the whole job set is then dropped and the
  /// scheduler stays usable).
  void flush(SimCounter& sims, SimPhase phase = SimPhase::kOther);

  /// Drops every queued job untallied (their stream positions stay
  /// consumed) and releases retained candidates.  Used when abandoning a
  /// deferred job set, e.g. when an optimizer run is restarted.
  void discard_pending();

  /// True when jobs are queued for the next flush().
  bool has_pending() const { return !pending_.empty(); }

  /// Batched nominal screens: enqueue_screen() + flush() for a candidate
  /// set.  Note this also drains any other pending jobs in the same job
  /// set (the generation-overlap fast path).
  void screen(std::span<CandidateYield* const> candidates, SimCounter& sims);

  /// enqueue() + flush() for a single candidate, for callers outside
  /// generation-wide rounds (the optimizer's final accurate estimate, the
  /// fixed-allocation ablation arm).
  void refine(CandidateYield& tally, long long count, SimCounter& sims,
              const McOptions& options, SimPhase phase = SimPhase::kOther);

  /// Low-level batched mapping through the session caches: calls
  /// fn(session, row) for every row in [0, rows), chunk-scheduled on the
  /// pool with `tally`'s cached sessions (counters update as usual).  For
  /// callers that need richer per-sample output than SampleResult -- the
  /// PSWCD pilot sweep reads full circuit Performance -- while still
  /// getting session caching and chunked claiming.  fn runs on worker
  /// threads and must write results to per-row slots.
  void for_each(CandidateYield& tally, std::size_t rows,
                const std::function<void(YieldProblem::Session&, std::size_t)>&
                    fn);

  /// Checkpoint-mode normalization (no pending jobs allowed): drops every
  /// cached session, leaving the scheduler's caches exactly as a fresh
  /// scheduler's -- which is what a resumed run starts from -- so a
  /// checkpointed run and its resume make the same cache/eviction decisions
  /// (and reopen the same sessions cold, in the same order) from this
  /// boundary on.
  void drop_sessions();

  /// Drops every cached session attributed to `problem`.  Callers that
  /// destroy a problem while the scheduler lives on (the serving daemon
  /// builds one problem per deck job) MUST call this first: a later problem
  /// allocated at the same address would otherwise adopt sessions of the
  /// destroyed evaluator.  Like enqueue(), single-owner: never call it
  /// while a flush is in flight.
  void forget_problem(const YieldProblem* problem);

  // --- instrumentation (relaxed atomics; exact between flushes) ---
  /// Sessions currently held across all worker caches.
  std::size_t live_sessions() const {
    return live_sessions_.load(std::memory_order_relaxed);
  }
  /// High-water mark of live_sessions().
  std::size_t peak_sessions() const {
    return peak_sessions_.load(std::memory_order_relaxed);
  }
  /// Cache misses (sessions constructed by open()) and hits since
  /// construction.
  long long session_opens() const {
    return cold_opens_.load(std::memory_order_relaxed);
  }
  long long session_hits() const {
    return session_hits_.load(std::memory_order_relaxed);
  }

 private:
  struct CacheEntry {
    std::uint64_t key = 0;
    std::uint64_t x_hash = 0;
    /// Problem and design the session was opened for: a cache miss on the
    /// candidate id falls back to adopting a session of the same (problem,
    /// x) under a new identity -- re-estimates (reference_yield, PSWCD
    /// analyze) create a fresh CandidateYield per call for the same design.
    const YieldProblem* problem = nullptr;
    std::vector<double> x;
    std::unique_ptr<YieldProblem::Session> session;
    std::uint64_t tick = 0;
  };
  /// One worker's LRU session cache; cache-line aligned so concurrent
  /// lookups on neighbouring workers do not false-share.
  struct alignas(64) WorkerCache {
    std::vector<CacheEntry> entries;
    std::uint64_t tick = 0;
  };
  struct PendingJob {
    CandidateYield* tally = nullptr;
    linalg::MatrixD samples;
    long long count = 0;
    bool screen = false;
    SimPhase phase = SimPhase::kOther;
  };

  YieldProblem::Session* session_for(int worker, CandidateYield& tally);
  /// Samples per task for a job set of `total` samples: about four tasks
  /// per worker, clamped to [1, 64], so one large stage-2 batch still
  /// spreads across the whole pool.
  std::size_t chunk_for(std::size_t total) const;

  ThreadPool* pool_;
  SchedulerOptions options_;
  std::vector<WorkerCache> caches_;
  std::vector<PendingJob> pending_;
  std::vector<std::shared_ptr<CandidateYield>> retained_;

  std::atomic<std::size_t> live_sessions_{0};
  std::atomic<std::size_t> peak_sessions_{0};
  std::atomic<long long> cold_opens_{0};
  std::atomic<long long> session_hits_{0};
};

/// FNV-1a hash of a design vector's bytes; the session-adoption lookup key.
/// Collisions are tolerable: adoption also compares the stored x exactly.
std::uint64_t design_hash(std::span<const double> x);

}  // namespace moheco::mc
