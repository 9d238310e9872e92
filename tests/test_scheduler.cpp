// Generation-wide EvalScheduler: scheduling determinism, equivalence with
// per-candidate refinement, session-cache bounds and accounting, cold
// reopening of evicted sessions, the pipelined optimizer loop, and the
// ThreadPool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/circuits/netlist_problem.hpp"
#include "src/spice/deck_parser.hpp"
#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/core/moheco.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/mc/ocba.hpp"
#include "src/mc/synthetic.hpp"
#include "src/stats/rng.hpp"

namespace moheco::mc {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(Parallel, ChunkedClaimingRunsEveryIndexOnce) {
  ThreadPool pool(4);
  for (std::size_t grain : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(
        1000, [&](int, std::size_t i) { ++hits[i]; }, grain);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

// --- Session-cache instrumentation ---------------------------------------

/// Counts live and total sessions so tests can observe the cache behaviour.
class CountingProblem final : public YieldProblem {
 public:
  explicit CountingProblem(std::size_t noise_dim = 2)
      : noise_dim_(noise_dim) {}

  std::size_t num_design_vars() const override { return 1; }
  double lower_bound(std::size_t) const override { return -1.0; }
  double upper_bound(std::size_t) const override { return 1.0; }
  std::size_t noise_dim() const override { return noise_dim_; }

  class CountingSession final : public Session {
   public:
    explicit CountingSession(const CountingProblem* parent)
        : parent_(parent) {
      const long long live =
          1 + parent_->live_.fetch_add(1, std::memory_order_relaxed);
      long long peak = parent_->peak_.load(std::memory_order_relaxed);
      while (peak < live && !parent_->peak_.compare_exchange_weak(
                                peak, live, std::memory_order_relaxed)) {
      }
    }
    ~CountingSession() override {
      parent_->live_.fetch_sub(1, std::memory_order_relaxed);
    }
    SampleResult evaluate(std::span<const double> xi) override {
      SampleResult r;
      r.pass = xi.empty() || xi[0] >= 0.0;
      return r;
    }

   private:
    const CountingProblem* parent_;
  };

  std::unique_ptr<Session> open(std::span<const double>) const override {
    opens_.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<CountingSession>(this);
  }

  long long live() const { return live_.load(); }
  long long peak() const { return peak_.load(); }
  long long opens() const { return opens_.load(); }

 private:
  std::size_t noise_dim_;
  mutable std::atomic<long long> live_{0};
  mutable std::atomic<long long> peak_{0};
  mutable std::atomic<long long> opens_{0};
};

TEST(EvalScheduler, PeakSessionsBoundedByCacheCapacity) {
  const CountingProblem problem;
  const int kWorkers = 4;
  const int kCapacity = 2;
  const int kCandidates = 16;
  ThreadPool pool(kWorkers);
  SchedulerOptions options;
  options.sessions_per_worker = kCapacity;
  EvalScheduler scheduler(pool, options);
  SimCounter sims;

  std::vector<std::unique_ptr<CandidateYield>> owners;
  for (int i = 0; i < kCandidates; ++i) {
    owners.push_back(
        std::make_unique<CandidateYield>(problem, std::vector<double>{0.0},
                                         static_cast<std::uint64_t>(i)));
  }
  for (int round = 0; round < 3; ++round) {
    for (auto& c : owners) scheduler.enqueue(*c, 20, McOptions{});
    scheduler.flush(sims);
  }
  // Eviction destroys before reopening, so the bound is exact on both the
  // problem's own count and the scheduler's instrumentation.
  EXPECT_LE(problem.peak(), kCapacity * kWorkers);
  EXPECT_LE(scheduler.peak_sessions(),
            static_cast<std::size_t>(kCapacity * kWorkers));
  EXPECT_EQ(scheduler.live_sessions(), static_cast<std::size_t>(problem.live()));
  EXPECT_EQ(scheduler.session_opens(), problem.opens());
  EXPECT_EQ(sims.total(), 3LL * kCandidates * 20);
}

TEST(EvalScheduler, CacheHitsOnRepeatedRefinement) {
  const CountingProblem problem;
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  CandidateYield c(problem, {0.0}, 9);
  for (int round = 0; round < 5; ++round) {
    scheduler.refine(c, 50, sims, McOptions{});
  }
  // At most one session per worker is ever opened for a single candidate.
  EXPECT_LE(problem.opens(), 2);
  EXPECT_GT(scheduler.session_hits(), 0);
}

/// open() fails for design points with x[0] < 0 (a candidate whose nominal
/// point cannot even be solved).
class FlakyOpenProblem final : public YieldProblem {
 public:
  std::size_t num_design_vars() const override { return 1; }
  double lower_bound(std::size_t) const override { return -1.0; }
  double upper_bound(std::size_t) const override { return 1.0; }
  std::size_t noise_dim() const override { return 1; }

  class PassSession final : public Session {
   public:
    SampleResult evaluate(std::span<const double>) override {
      SampleResult r;
      r.pass = true;
      return r;
    }
  };

  std::unique_ptr<Session> open(std::span<const double> x) const override {
    if (x[0] < 0.0) throw InvalidArgument("open failed");
    return std::make_unique<PassSession>();
  }
};

TEST(EvalScheduler, SurvivesThrowingSessionConstruction) {
  const FlakyOpenProblem problem;
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  CandidateYield bad(problem, {-0.5}, 1);
  CandidateYield good(problem, {0.5}, 2);
  // Fault containment: the throwing open() quarantines ONLY its candidate
  // (marked failed with the open reason code) instead of poisoning the
  // whole flush with an exception.
  scheduler.refine(bad, 10, sims, McOptions{});
  EXPECT_TRUE(bad.failed());
  EXPECT_EQ(bad.fail_reason(), FailEvent::kQuarantineOpen);
  EXPECT_EQ(bad.samples(), 0);
  EXPECT_EQ(sims.fail_total(FailEvent::kQuarantineOpen), 1);
  // The failed open must not leave a poisoned cache entry behind: the
  // scheduler stays usable and the good candidate evaluates normally.
  scheduler.refine(good, 10, sims, McOptions{});
  EXPECT_EQ(good.samples(), 10);
  EXPECT_EQ(good.passes(), 10);
  EXPECT_EQ(scheduler.live_sessions(), scheduler.peak_sessions());
}

TEST(EvalScheduler, ScreenBatchesAndCountsOnce) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.3);
  ThreadPool pool(4);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  std::vector<std::unique_ptr<CandidateYield>> owners;
  std::vector<CandidateYield*> candidates;
  for (int i = 0; i < 8; ++i) {
    const double r = 0.3 * i;  // some inside the feasible disk, some out
    owners.push_back(std::make_unique<CandidateYield>(
        problem, std::vector<double>{r, 0.0},
        static_cast<std::uint64_t>(i)));
    candidates.push_back(owners.back().get());
  }
  scheduler.screen(candidates, sims);
  EXPECT_EQ(sims.phase_total(SimPhase::kScreen), 8);
  for (const auto& c : owners) EXPECT_TRUE(c->screened());
  // Re-screening is free: everything is cached.
  scheduler.screen(candidates, sims);
  EXPECT_EQ(sims.total(), 8);
  // Screen verdicts match the problem's closed form.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(owners[i]->nominal_feasible(),
              problem.margin(owners[i]->x()) >= 0.0);
  }
}

// --- Scheduling determinism ----------------------------------------------

struct TallySnapshot {
  std::vector<long long> samples;
  std::vector<long long> passes;
  bool operator==(const TallySnapshot&) const = default;
};

TallySnapshot snapshot(
    const std::vector<std::unique_ptr<CandidateYield>>& owners) {
  TallySnapshot s;
  for (const auto& c : owners) {
    s.samples.push_back(c->samples());
    s.passes.push_back(c->passes());
  }
  return s;
}

std::vector<std::unique_ptr<CandidateYield>> make_pool(
    const YieldProblem& problem, int count) {
  std::vector<std::unique_ptr<CandidateYield>> owners;
  for (int i = 0; i < count; ++i) {
    const double r = 0.08 * i;
    owners.push_back(std::make_unique<CandidateYield>(
        problem, std::vector<double>{r, 0.0},
        stats::derive_seed(4242, static_cast<std::uint64_t>(i))));
  }
  return owners;
}

TwoStageOptions determinism_options() {
  TwoStageOptions options;
  options.n0 = 15;
  options.sim_avg = 35;
  options.n_max = 120;
  options.stage2_threshold = 0.8;
  return options;
}

TEST(EvalScheduler, TwoStageBitIdenticalAcrossThreadCounts) {
  const QuadraticYieldProblem problem(2, 6, 1.0, 0.5);
  const TwoStageOptions options = determinism_options();
  int hardware = static_cast<int>(std::thread::hardware_concurrency());
  if (hardware < 1) hardware = 1;

  std::vector<TallySnapshot> snapshots;
  std::vector<std::vector<std::size_t>> promotions;
  for (int threads : {1, 2, hardware}) {
    ThreadPool pool(threads);
    EvalScheduler scheduler(pool);
    SimCounter sims;
    auto owners = make_pool(problem, 10);
    std::vector<CandidateYield*> cands;
    for (auto& c : owners) cands.push_back(c.get());
    scheduler.screen(cands, sims);
    promotions.push_back(
        two_stage_estimate(cands, options, scheduler, sims));
    snapshots.push_back(snapshot(owners));
  }
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i], snapshots[0]) << "thread-count variant " << i;
    EXPECT_EQ(promotions[i], promotions[0]);
  }
}

TEST(EvalScheduler, TwoStageMatchesPerCandidatePath) {
  // The batched scheduler must reproduce a per-candidate flow bit-for-bit:
  // same seeds, same round structure, same tallies.  The reference below
  // replays the algorithm with one fresh single-candidate scheduler (= one
  // pool barrier, cold sessions) per candidate per round.
  const QuadraticYieldProblem problem(2, 6, 1.0, 0.5);
  const TwoStageOptions options = determinism_options();
  ThreadPool pool(4);

  // --- batched path ---
  auto batched_owners = make_pool(problem, 10);
  std::vector<std::size_t> batched_promoted;
  {
    EvalScheduler scheduler(pool);
    SimCounter sims;
    std::vector<CandidateYield*> cands;
    for (auto& c : batched_owners) cands.push_back(c.get());
    scheduler.screen(cands, sims);
    batched_promoted = two_stage_estimate(cands, options, scheduler, sims);
  }

  // --- per-candidate reference ---
  auto reference_owners = make_pool(problem, 10);
  std::vector<std::size_t> reference_promoted;
  {
    SimCounter sims;
    const auto refine = [&](CandidateYield& c, long long count) {
      EvalScheduler(pool).refine(c, count, sims, options.mc);
    };
    std::vector<CandidateYield*> cands;
    for (auto& c : reference_owners) {
      CandidateYield* one[] = {c.get()};
      EvalScheduler(pool).screen(one, sims);
      cands.push_back(c.get());
    }
    const std::size_t s = cands.size();
    long long initial_total = 0;
    long long num_new = 0;
    for (const CandidateYield* c : cands) {
      initial_total += c->samples();
      if (c->samples() < options.n0) ++num_new;
    }
    for (CandidateYield* c : cands) {
      if (c->samples() < options.n0) {
        refine(*c, options.n0 - c->samples());
      }
    }
    const long long total_budget =
        initial_total + static_cast<long long>(options.sim_avg) * num_new;
    const long long delta = std::max<long long>(
        static_cast<long long>(s), total_budget / 10);
    while (true) {
      long long used = 0;
      for (const CandidateYield* c : cands) used += c->samples();
      if (used >= total_budget) break;
      const long long round_total = std::min(total_budget, used + delta);
      std::vector<double> means(s), variances(s);
      for (std::size_t i = 0; i < s; ++i) {
        means[i] = cands[i]->mean();
        variances[i] = cands[i]->smoothed_variance();
      }
      const auto target = ocba_allocation(means, variances, round_total);
      long long allowance = round_total - used;
      long long added = 0;
      for (std::size_t i = 0; i < s && allowance > 0; ++i) {
        long long extra = target[i] - cands[i]->samples();
        extra = std::min(extra, static_cast<long long>(options.n_max) -
                                    cands[i]->samples());
        extra = std::min(extra, allowance);
        if (extra > 0) {
          refine(*cands[i], extra);
          added += extra;
          allowance -= extra;
        }
      }
      if (added == 0) break;
    }
    for (std::size_t i = 0; i < s; ++i) {
      if (cands[i]->mean() > options.stage2_threshold &&
          cands[i]->samples() < options.n_max) {
        refine(*cands[i], options.n_max - cands[i]->samples());
        reference_promoted.push_back(i);
      } else if (cands[i]->samples() >= options.n_max) {
        reference_promoted.push_back(i);
      }
    }
  }

  EXPECT_EQ(snapshot(batched_owners), snapshot(reference_owners));
  EXPECT_EQ(batched_promoted, reference_promoted);
}

TEST(EvalScheduler, ChunkSizeDoesNotAffectTallies) {
  // A flush cuts each job into tasks of clamp(total / (4 * workers), 1, 64)
  // samples.  Six candidates x {5, 40, 101} samples per flush on 1, 2, 4
  // and 8 workers reach every regime: 30 samples on 4 or 8 workers give
  // chunk 1; 240 samples on 1 worker give chunk 60, one task per job; 606
  // samples give chunk 64, 37 or 18, several tasks per job.
  const QuadraticYieldProblem problem(2, 6, 1.0, 0.5);
  std::vector<TallySnapshot> reference;
  for (int workers : {1, 2, 4, 8}) {
    ThreadPool pool(workers);
    EvalScheduler scheduler(pool);
    SimCounter sims;
    auto owners = make_pool(problem, 6);
    std::vector<TallySnapshot> snaps;
    for (long long per_candidate : {5LL, 40LL, 101LL}) {
      for (auto& c : owners) {
        scheduler.enqueue(*c, per_candidate, McOptions{});
      }
      scheduler.flush(sims);
      snaps.push_back(snapshot(owners));
    }
    if (reference.empty()) {
      reference = snaps;
    } else {
      EXPECT_EQ(snaps, reference) << workers << " workers";
    }
  }
}

// --- Session accounting ---------------------------------------------------

inline void keep(double& value) { asm volatile("" : "+m"(value)); }

/// CountingProblem with tunable open/evaluate cost, so scheduling tests see
/// realistic (non-degenerate) timing.
class SpinCountProblem final : public YieldProblem {
 public:
  SpinCountProblem(int open_spin, int eval_spin)
      : open_spin_(open_spin), eval_spin_(eval_spin) {}

  std::size_t num_design_vars() const override { return 1; }
  double lower_bound(std::size_t) const override { return -2.0; }
  double upper_bound(std::size_t) const override { return 2.0; }
  std::size_t noise_dim() const override { return 2; }

  class SpinSession final : public Session {
   public:
    SpinSession(double margin, int spin) : margin_(margin), spin_(spin) {}
    SampleResult evaluate(std::span<const double> xi) override {
      double acc = margin_;
      for (int k = 0; k < spin_; ++k) acc += acc * 1e-12 + 1e-9;
      keep(acc);
      SampleResult r;
      r.pass = xi.empty() ||
               margin_ + 0.5 * (xi[0] + xi[1]) >= 0.0;
      return r;
    }

   private:
    double margin_;
    int spin_;
  };

  std::unique_ptr<Session> open(std::span<const double> x) const override {
    opens_.fetch_add(1, std::memory_order_relaxed);
    double acc = x[0];
    for (int k = 0; k < open_spin_; ++k) acc += acc * 1e-12 + 1e-9;
    keep(acc);
    return std::make_unique<SpinSession>(1.0 - x[0] * x[0], eval_spin_);
  }

  long long opens() const { return opens_.load(); }

 private:
  int open_spin_;
  int eval_spin_;
  mutable std::atomic<long long> opens_{0};
};

TEST(EvalScheduler, SessionAccountingMatchesSchedBreakdown) {
  const int kCandidates = 16;
  const int kRounds = 10;
  // 16 x 128 = 2048 samples per flush: chunk 64 on 1 and on 3 workers, so
  // every job is two tasks.
  const int kPerRound = 128;
  auto run = [&](int workers) {
    SpinCountProblem problem(/*open_spin=*/20000, /*eval_spin=*/300);
    ThreadPool pool(workers);
    SchedulerOptions options;
    options.sessions_per_worker = 4;
    EvalScheduler scheduler(pool, options);
    SimCounter sims;
    std::vector<std::unique_ptr<CandidateYield>> owners;
    for (int i = 0; i < kCandidates; ++i) {
      owners.push_back(std::make_unique<CandidateYield>(
          problem, std::vector<double>{0.1 * i - 0.8},
          stats::derive_seed(31, static_cast<std::uint64_t>(i))));
    }
    for (int round = 0; round < kRounds; ++round) {
      for (auto& c : owners) scheduler.enqueue(*c, kPerRound, McOptions{});
      scheduler.flush(sims);
    }
    struct Out {
      long long opens;
      long long hits;
      TallySnapshot tallies;
      SchedBreakdown sched;
    };
    return Out{problem.opens(), scheduler.session_hits(), snapshot(owners),
               sims.sched_breakdown()};
  };

  const long long tasks = 2LL * kCandidates * kRounds;
  const auto serial = run(1);
  const auto pooled = run(3);
  for (const auto* out : {&serial, &pooled}) {
    // Every task looks its session up once (a hit or an open), and the
    // flushes' SimCounter saw exactly the events the scheduler counted.
    EXPECT_EQ(out->opens + out->hits, tasks);
    EXPECT_EQ(out->opens, out->sched.cold_opens);
    EXPECT_EQ(out->hits, out->sched.session_hits);
  }
  // 16 candidates cycle through a 4-session LRU: one cold open per
  // candidate per round, its second task hits the open session.
  EXPECT_EQ(serial.opens, 1LL * kCandidates * kRounds);
  // Tallies never depend on the worker count.
  EXPECT_EQ(pooled.tallies, serial.tallies);
}

TEST(EvalScheduler, EvictedSessionsReopenColdWithIdenticalTallies) {
  // Single worker + capacity 1: candidates A and B alternate and every
  // refine evicts the other's session, so each one reopens cold through
  // open().  The tallies match a cache large enough to never evict.
  auto run_rounds = [](int capacity) {
    SpinCountProblem problem(/*open_spin=*/0, /*eval_spin=*/0);
    ThreadPool pool(1);
    SchedulerOptions options;
    options.sessions_per_worker = capacity;
    EvalScheduler scheduler(pool, options);
    SimCounter sims;
    std::vector<std::unique_ptr<CandidateYield>> owners;
    owners.push_back(std::make_unique<CandidateYield>(
        problem, std::vector<double>{0.3}, 11));
    owners.push_back(std::make_unique<CandidateYield>(
        problem, std::vector<double>{-0.4}, 12));
    for (int round = 0; round < 3; ++round) {
      for (auto& c : owners) scheduler.refine(*c, 50, sims, McOptions{});
    }
    struct Out {
      TallySnapshot tallies;
      long long opens;
      SchedBreakdown sched;
    };
    return Out{snapshot(owners), problem.opens(), sims.sched_breakdown()};
  };

  const auto evicting = run_rounds(/*capacity=*/1);
  EXPECT_EQ(evicting.opens, 6);
  EXPECT_EQ(evicting.sched.cold_opens, 6);
  const auto roomy = run_rounds(/*capacity=*/2);
  EXPECT_EQ(roomy.opens, 2);
  EXPECT_EQ(roomy.tallies, evicting.tallies);
}

// --- Merged job sets, retention, reference yield --------------------------

TEST(EvalScheduler, MergedFlushRunsScreensAndBatchesTogether) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.5);
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  CandidateYield a(problem, {0.1, 0.0}, 21);
  CandidateYield b(problem, {0.2, 0.1}, 22);
  scheduler.enqueue(a, 40, McOptions{}, SimPhase::kStage2);
  scheduler.enqueue_screen(b);
  scheduler.flush(sims);
  EXPECT_EQ(sims.phase_total(SimPhase::kStage2), 40);
  EXPECT_EQ(sims.phase_total(SimPhase::kScreen), 1);
  EXPECT_EQ(a.samples(), 40);
  EXPECT_TRUE(b.screened());
  EXPECT_TRUE(b.nominal_feasible());
}

TEST(EvalScheduler, RetainKeepsDroppedCandidatesAliveUntilFlush) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.5);
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  auto c = std::make_shared<CandidateYield>(
      problem, std::vector<double>{0.1, 0.2}, 33);
  scheduler.enqueue(*c, 30, McOptions{}, SimPhase::kStage2);
  scheduler.retain(c);
  c.reset();  // the scheduler's keep-alive is now the only owner
  scheduler.flush(sims);  // ASan would catch a dangling tally here
  EXPECT_EQ(sims.phase_total(SimPhase::kStage2), 30);
}

TEST(EvalScheduler, DiscardPendingDropsJobsUntallied) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.5);
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  CandidateYield c(problem, {0.1, 0.0}, 44);
  scheduler.enqueue(c, 25, McOptions{});
  scheduler.discard_pending();
  scheduler.flush(sims);
  EXPECT_EQ(c.samples(), 0);
  EXPECT_EQ(sims.total(), 0);
  // The stream position was consumed: the next batch is batch 2, but the
  // scheduler itself stays fully usable.
  scheduler.refine(c, 25, sims, McOptions{});
  EXPECT_EQ(c.samples(), 25);
}

TEST(ReferenceYield, SchedulerOverloadMatchesPoolOverload) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.5);
  const std::vector<double> x = {0.5, 0.2};
  ThreadPool pool(4);
  const double via_pool = reference_yield(problem, x, 2000, 123, pool);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  const double via_scheduler = reference_yield(
      problem, x, 2000, 123, scheduler, stats::SamplingMethod::kPMC, &sims);
  EXPECT_EQ(via_pool, via_scheduler);
  EXPECT_EQ(sims.phase_total(SimPhase::kOther), 2000);
  EXPECT_NEAR(via_scheduler, problem.true_yield(x), 0.05);
  // Identical request on the same scheduler: same estimate, and each
  // worker's cache adopts its session from the first call for the new
  // candidate identity -- so across any number of same-design re-estimates
  // no worker ever opens a second session.
  EXPECT_EQ(reference_yield(problem, x, 2000, 123, scheduler), via_scheduler);
  EXPECT_EQ(reference_yield(problem, x, 2000, 123, scheduler), via_scheduler);
  EXPECT_LE(scheduler.session_opens(),
            static_cast<long long>(pool.num_workers()));
  EXPECT_GT(scheduler.session_hits(), 0);
}

// --- Circuit problems through the scheduler --------------------------------

std::vector<long long> circuit_tallies(const YieldProblem& problem,
                                       const std::vector<double>& x,
                                       int workers, std::uint64_t seed) {
  ThreadPool pool(workers);
  EvalScheduler scheduler(pool);
  std::vector<std::unique_ptr<CandidateYield>> candidates;
  for (int c = 0; c < 3; ++c) {
    candidates.push_back(std::make_unique<CandidateYield>(
        problem, x,
        stats::derive_seed(seed, 0xBA7C, static_cast<std::uint64_t>(c))));
  }
  SimCounter sims;
  for (int round = 0; round < 2; ++round) {
    for (auto& c : candidates) scheduler.enqueue(*c, 18, McOptions{});
    scheduler.flush(sims, SimPhase::kOcba);
  }
  std::vector<long long> tallies;
  for (const auto& c : candidates) tallies.push_back(c->passes());
  return tallies;
}

TEST(EvalScheduler, CircuitTalliesIndependentOfThreads) {
  // The amplifier sessions are pure functions of (x, xi): the worker count
  // never changes a tally.  The deck's nominal sizing sits mid-yield, so
  // the tallies count both passing and failing samples.
  const circuits::NetlistYieldProblem problem(spice::parse_deck_file(
      std::string(MOHECO_SOURCE_DIR) + "/examples/five_t_ota.cir"));
  const std::vector<double> x = problem.nominal_x();
  const std::vector<long long> reference =
      circuit_tallies(problem, x, /*workers=*/1, 0x5C4ED);
  for (long long passes : reference) {
    EXPECT_GT(passes, 0);
    EXPECT_LT(passes, 36);
  }
  for (int workers : {2, 3}) {
    EXPECT_EQ(circuit_tallies(problem, x, workers, 0x5C4ED), reference)
        << "workers=" << workers;
  }
}

// --- Pipelined optimizer loop ---------------------------------------------

struct OptimizerFingerprint {
  std::vector<double> best_x;
  long long best_samples = 0;
  long long total_simulations = 0;
  long long stage2 = 0;
  std::vector<long long> trace_sims;
  bool operator==(const OptimizerFingerprint&) const = default;
};

OptimizerFingerprint run_optimizer(int threads, std::uint64_t seed) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.4);
  core::MohecoOptions options;
  options.population = 10;
  options.estimation.n0 = 10;
  options.estimation.sim_avg = 20;
  options.estimation.n_max = 80;
  options.threads = threads;
  options.seed = seed;
  const core::MohecoResult result =
      core::MohecoOptimizer(problem, options).run_generations(5);
  OptimizerFingerprint fp;
  fp.best_x = result.best.x;
  fp.best_samples = result.best.samples;
  fp.total_simulations = result.total_simulations;
  fp.stage2 = result.sim_breakdown.stage2;
  for (const auto& g : result.trace) {
    fp.trace_sims.push_back(g.sims_cumulative);
  }
  return fp;
}

TEST(MohecoPipeline, FingerprintIndependentOfThreadCount) {
  // The pipelined loop (stage-2 of generation g merged with the screens of
  // g+1) gives the identical best vector, budget split, and per-generation
  // sim trace for every thread count.
  const OptimizerFingerprint reference = run_optimizer(1, 7);
  EXPECT_GT(reference.stage2, 0);  // the workload must actually promote
  int hardware = static_cast<int>(std::thread::hardware_concurrency());
  if (hardware < 2) hardware = 2;
  for (int threads : {2, hardware}) {
    EXPECT_EQ(run_optimizer(threads, 7), reference) << "threads=" << threads;
  }
}

// --- Per-phase accounting -------------------------------------------------

TEST(SimCounter, TwoStagePhaseBreakdown) {
  const QuadraticYieldProblem problem(2, 6, 1.0, 0.5);
  TwoStageOptions options = determinism_options();
  ThreadPool pool(4);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  auto owners = make_pool(problem, 10);
  std::vector<CandidateYield*> cands;
  for (auto& c : owners) cands.push_back(c.get());
  scheduler.screen(cands, sims);
  two_stage_estimate(cands, options, scheduler, sims);

  const SimBreakdown b = sims.breakdown();
  EXPECT_EQ(b.screen, 10);
  EXPECT_EQ(b.stage1, 10LL * options.n0);
  EXPECT_GT(b.ocba, 0);
  EXPECT_EQ(b.other, 0);
  EXPECT_EQ(b.total(), sims.total());
  long long tallied = 0;
  for (const auto& c : owners) tallied += c->samples();
  EXPECT_EQ(tallied + b.screen, b.total());
}

}  // namespace
}  // namespace moheco::mc
