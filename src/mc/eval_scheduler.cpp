#include "src/mc/eval_scheduler.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/hash.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace moheco::mc {

std::uint64_t design_hash(std::span<const double> x) { return fnv1a64(x); }

EvalScheduler::EvalScheduler(ThreadPool& pool, SchedulerOptions options)
    : pool_(&pool),
      options_(options),
      caches_(static_cast<std::size_t>(pool.num_workers())) {
  require(options_.sessions_per_worker > 0,
          "EvalScheduler: sessions_per_worker must be positive");
  for (auto& cache : caches_) {
    cache.entries.reserve(
        static_cast<std::size_t>(options_.sessions_per_worker));
  }
}

void EvalScheduler::drop_sessions() {
  require(pending_.empty(),
          "EvalScheduler::drop_sessions: flush pending jobs first");
  for (WorkerCache& cache : caches_) {
    cache.entries.clear();
    cache.tick = 0;
  }
  live_sessions_.store(0, std::memory_order_relaxed);
}

void EvalScheduler::forget_problem(const YieldProblem* problem) {
  for (WorkerCache& cache : caches_) {
    for (CacheEntry& entry : cache.entries) {
      if (entry.session && entry.problem == problem) {
        entry.session.reset();
        entry.problem = nullptr;
        entry.x.clear();
        live_sessions_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
}

YieldProblem::Session* EvalScheduler::session_for(int worker,
                                                  CandidateYield& tally) {
  WorkerCache& cache = caches_[static_cast<std::size_t>(worker)];
  ++cache.tick;
  for (CacheEntry& entry : cache.entries) {
    if (entry.session && entry.key == tally.id()) {
      entry.tick = cache.tick;
      session_hits_.fetch_add(1, std::memory_order_relaxed);
      return entry.session.get();
    }
  }
  // Identity miss: adopt a session of the same (problem, design) under the
  // new candidate id.  Sample results are pure functions of (x, xi), so the
  // session serves the new identity verbatim; the exact-x comparison guards
  // against hash collisions.
  const std::uint64_t lookup_hash = design_hash(tally.x());
  for (CacheEntry& entry : cache.entries) {
    if (entry.session && entry.x_hash == lookup_hash &&
        entry.problem == &tally.problem() && entry.x == tally.x()) {
      entry.key = tally.id();
      entry.tick = cache.tick;
      session_hits_.fetch_add(1, std::memory_order_relaxed);
      return entry.session.get();
    }
  }
  CacheEntry* slot = nullptr;
  if (cache.entries.size() <
      static_cast<std::size_t>(options_.sessions_per_worker)) {
    // Never reallocates: the vector is reserved to capacity on construction,
    // so entries stay stable while other lookups hold pointers into them.
    slot = &cache.entries.emplace_back();
  } else {
    // Evict the least-recently-used session before opening the replacement,
    // so the live-session bound of capacity * workers is never exceeded,
    // even transiently.
    slot = &cache.entries.front();
    for (CacheEntry& entry : cache.entries) {
      if (entry.tick < slot->tick) slot = &entry;
    }
    if (slot->session) {
      slot->session.reset();
      live_sessions_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (fail::should_fail(fail::Site::kSessionOpen)) {
    throw Error("failpoint: session_open");
  }
  // open() may throw (e.g. a failing nominal solve); the slot is then left
  // empty (null session, skipped by lookups and recycled first by the LRU
  // scan), keeping the cache and the live-session accounting valid.
  slot->session = tally.problem().open(tally.x());
  cold_opens_.fetch_add(1, std::memory_order_relaxed);
  slot->key = tally.id();
  slot->x_hash = lookup_hash;
  slot->problem = &tally.problem();
  slot->x.assign(tally.x().begin(), tally.x().end());
  slot->tick = cache.tick;
  const std::size_t live =
      live_sessions_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::size_t peak = peak_sessions_.load(std::memory_order_relaxed);
  while (peak < live && !peak_sessions_.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return slot->session.get();
}

void EvalScheduler::enqueue(CandidateYield& tally, long long count,
                            const McOptions& options, SimPhase phase) {
  if (count <= 0 || tally.failed()) return;
  PendingJob job;
  job.tally = &tally;
  job.samples = tally.next_batch(count, options);
  job.count = count;
  job.phase = phase;
  pending_.push_back(std::move(job));
}

void EvalScheduler::enqueue_samples(CandidateYield& tally,
                                    linalg::MatrixD samples, SimPhase phase) {
  if (samples.rows() == 0 || tally.failed()) return;
  require(samples.cols() == tally.problem().noise_dim(),
          "EvalScheduler: sample batch dimension mismatch");
  PendingJob job;
  job.tally = &tally;
  job.count = static_cast<long long>(samples.rows());
  job.samples = std::move(samples);
  job.phase = phase;
  pending_.push_back(std::move(job));
}

void EvalScheduler::enqueue_screen(CandidateYield& tally) {
  if (tally.screened() || tally.failed()) return;
  PendingJob job;
  job.tally = &tally;
  job.screen = true;
  job.phase = SimPhase::kScreen;
  pending_.push_back(std::move(job));
}

void EvalScheduler::retain(std::shared_ptr<CandidateYield> tally) {
  if (tally) retained_.push_back(std::move(tally));
}

void EvalScheduler::discard_pending() {
  pending_.clear();
  retained_.clear();
}

std::size_t EvalScheduler::chunk_for(std::size_t total) const {
  return std::clamp<std::size_t>(
      total / (4 * static_cast<std::size_t>(pool_->num_workers())), 1, 64);
}

void EvalScheduler::flush(SimCounter& sims, SimPhase phase) {
  if (pending_.empty()) {
    retained_.clear();
    return;
  }
  obs::Span flush_span("sched.flush",
                       static_cast<std::int64_t>(pending_.size()));
  static obs::Histogram& flush_us =
      obs::registry().histogram("sched.flush_us");
  obs::ScopedTimer flush_timer(flush_us);
  long long total = 0;
  for (const PendingJob& job : pending_) {
    if (!job.screen) total += job.count;
  }

  const std::size_t chunk = chunk_for(static_cast<std::size_t>(total));

  // One task per (job, row range), in job order; all tasks of a round drain
  // as one pool dispatch, each claimed by whichever worker is free next.
  // Tasks of one job are contiguous, so a worker claiming neighbouring
  // tasks stays on the same candidate's session.
  struct Task {
    std::size_t job;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Task> tasks;
  tasks.reserve(pending_.size() + static_cast<std::size_t>(total) / chunk);
  for (std::size_t j = 0; j < pending_.size(); ++j) {
    if (pending_[j].screen) {
      tasks.push_back({j, 0, 1});
      continue;
    }
    const std::size_t rows = static_cast<std::size_t>(pending_[j].count);
    for (std::size_t begin = 0; begin < rows; begin += chunk) {
      tasks.push_back({j, begin, std::min(rows, begin + chunk)});
    }
  }

  // Per-task pass counts summed sequentially afterwards: integer tallies in
  // a fixed order, so the result is independent of scheduling.  A throwing
  // session or evaluation quarantines ITS job only: the job's remaining
  // tasks are skipped, the candidate is marked failed with a reason code,
  // and every other job tallies exactly as if the failing one had never
  // been enqueued.  job_failure[j] holds 0 (healthy) or 1 + FailEvent.
  std::vector<long long> task_passes(tasks.size(), 0);
  std::vector<char> task_done(tasks.size(), 0);
  std::vector<SampleResult> screen_results(pending_.size());
  std::vector<std::atomic<int>> job_failure(pending_.size());
  const auto evaluate_task = [&](int worker, std::size_t t) {
    const Task& task = tasks[t];
    PendingJob& job = pending_[task.job];
    if (job_failure[task.job].load(std::memory_order_relaxed) != 0) return;
    YieldProblem::Session* session = nullptr;
    try {
      session = session_for(worker, *job.tally);
    } catch (...) {
      job_failure[task.job].store(
          1 + static_cast<int>(FailEvent::kQuarantineOpen),
          std::memory_order_relaxed);
      return;
    }
    try {
      if (job.screen) {
        screen_results[task.job] = session->evaluate({});
      } else {
        const std::size_t dim = job.tally->problem().noise_dim();
        long long passes = 0;
        for (std::size_t i = task.begin; i < task.end; ++i) {
          if (session->evaluate({job.samples.row(i), dim}).pass) ++passes;
        }
        task_passes[t] = passes;
      }
      task_done[t] = 1;
    } catch (...) {
      // The task's partial result must not count: its job is dropped whole.
      job_failure[task.job].store(
          1 + static_cast<int>(job.screen ? FailEvent::kQuarantineScreen
                                          : FailEvent::kQuarantineEval),
          std::memory_order_relaxed);
    }
  };

  const long long hits_before = session_hits();
  const long long cold_before = cold_opens_.load(std::memory_order_relaxed);
  try {
    pool_->parallel_for(tasks.size(), evaluate_task, /*grain=*/1);
  } catch (...) {
    // Pool-infrastructure failure (evaluation errors are contained per job
    // above): drop the whole job set untallied, keep the scheduler usable.
    pending_.clear();
    retained_.clear();
    throw;
  }

  // Tally updates in job order: bit-identical no matter how the tasks were
  // scheduled.  Screens count under kScreen via record_nominal; batches
  // count under their enqueue phase (kOther defers to the flush phase).
  long long phase_totals[kNumSimPhases] = {};
  {
    std::size_t t = 0;
    for (std::size_t j = 0; j < pending_.size(); ++j) {
      PendingJob& job = pending_[j];
      const int failure = job_failure[j].load(std::memory_order_relaxed);
      if (failure != 0) {
        // Quarantine: nothing of this job is tallied (a partial tally would
        // bias the yield estimate), but the rows that did complete before
        // the failure still count as spent simulation budget.
        long long done = 0;
        for (; t < tasks.size() && tasks[t].job == j; ++t) {
          if (!job.screen && task_done[t] != 0) {
            done += static_cast<long long>(tasks[t].end - tasks[t].begin);
          }
        }
        const FailEvent reason = static_cast<FailEvent>(failure - 1);
        job.tally->mark_failed(reason);
        sims.add_fail(reason);
        if (done > 0) {
          const SimPhase counted =
              job.phase == SimPhase::kOther ? phase : job.phase;
          phase_totals[static_cast<std::size_t>(counted)] += done;
        }
        continue;
      }
      if (job.screen) {
        ++t;
        job.tally->record_nominal(screen_results[j], sims);
        continue;
      }
      long long passes = 0;
      for (; t < tasks.size() && tasks[t].job == j; ++t) {
        passes += task_passes[t];
      }
      job.tally->record(job.count, passes);
      const SimPhase counted =
          job.phase == SimPhase::kOther ? phase : job.phase;
      phase_totals[static_cast<std::size_t>(counted)] += job.count;
    }
  }
  for (std::size_t p = 0; p < kNumSimPhases; ++p) {
    if (phase_totals[p] > 0) {
      sims.add(phase_totals[p], static_cast<SimPhase>(p));
    }
  }
  const long long flush_session_hits = session_hits() - hits_before;
  const long long flush_cold =
      cold_opens_.load(std::memory_order_relaxed) - cold_before;
  sims.add_event(SchedEvent::kSessionHit, flush_session_hits);
  sims.add_event(SchedEvent::kSessionOpenCold, flush_cold);

  // Process-global registry totals over the same deltas SimCounter just
  // recorded (SimCounter stays the per-run view; see docs/observability.md).
  {
    static obs::Counter& c_session_hits =
        obs::registry().counter("sched.session_hits");
    static obs::Counter& c_cold = obs::registry().counter("sched.cold_opens");
    static obs::Counter& c_flushes = obs::registry().counter("sched.flushes");
    c_session_hits.add(static_cast<std::uint64_t>(flush_session_hits));
    c_cold.add(static_cast<std::uint64_t>(flush_cold));
    c_flushes.add(1);
  }
  pending_.clear();
  retained_.clear();
}

void EvalScheduler::screen(std::span<CandidateYield* const> candidates,
                           SimCounter& sims) {
  for (CandidateYield* c : candidates) {
    if (c != nullptr) enqueue_screen(*c);
  }
  flush(sims);
}

void EvalScheduler::refine(CandidateYield& tally, long long count,
                           SimCounter& sims, const McOptions& options,
                           SimPhase phase) {
  enqueue(tally, count, options, SimPhase::kOther);
  flush(sims, phase);
}

void EvalScheduler::for_each(
    CandidateYield& tally, std::size_t rows,
    const std::function<void(YieldProblem::Session&, std::size_t)>& fn) {
  require(pending_.empty(),
          "EvalScheduler::for_each: flush pending jobs first");
  if (rows == 0) return;
  const std::size_t chunk = chunk_for(rows);
  const std::size_t num_chunks = (rows + chunk - 1) / chunk;
  pool_->parallel_for(
      num_chunks,
      [&](int worker, std::size_t c) {
        YieldProblem::Session* session = session_for(worker, tally);
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(rows, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) fn(*session, i);
      },
      /*grain=*/1);
}

}  // namespace moheco::mc
