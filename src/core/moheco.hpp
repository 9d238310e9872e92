// MOHECO: Memetic Ordinal-Optimization-based Hybrid Evolutionary
// Constrained Optimization (Liu, Fernandez, Gielen, DATE 2010).
//
// One configurable optimizer implements the paper's algorithm and both of
// its MC-based comparison methods:
//   - MOHECO            : use_ocba = true,  use_memetic = true
//   - OO + AS + LHS     : use_ocba = true,  use_memetic = false
//   - AS + LHS @ N sims : use_ocba = false (fixed_budget = N), memetic off
// Sampling (LHS vs PMC), population parameters and the estimation constants
// (n0 = 15, sim_avg = 35, n_max = 500, 97% stage-2 threshold) follow the
// paper's Section 3 settings by default.
//
// Flow per generation (Fig. 4 of the paper):
//   select base vector (population best) -> DE mutation + crossover ->
//   nominal feasibility screen (acceptance sampling) -> stage-1 OCBA yield
//   estimation (or fixed budget) with stage-2 promotion above 97% ->
//   Deb-rule one-to-one selection -> optional Nelder-Mead local search on
//   the best member after 5 stagnant generations -> stop at 100% reported
//   yield or 20 stagnant generations.
//
// Scheduling: the loop is pipelined across generations.  Stage-2 promotion
// batches of generation g are enqueued when promotion is decided (from the
// stage-1 tallies) but evaluated together with generation g+1's nominal
// screens as one overlapping job set on the EvalScheduler, whose sticky
// candidate->worker affinity and warm-start blob store keep hot candidates'
// evaluator sessions warm across rounds and generations.  Stage-2 samples
// land in the tallies before generation g+1's OCBA pool reads them and the
// sample streams are fixed at enqueue time, so the overlap never changes a
// tally.  See src/mc/eval_scheduler.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/mc/ocba.hpp"
#include "src/mc/sim_counter.hpp"
#include "src/mc/yield_problem.hpp"
#include "src/opt/constraint.hpp"
#include "src/opt/de.hpp"

namespace moheco::core {

struct MohecoOptions {
  int population = 50;            ///< paper: 50
  opt::DeConfig de;               ///< paper: F = 0.8, CR = 0.8, DE/best/1
  mc::TwoStageOptions estimation; ///< n0 = 15, sim_avg = 35, n_max = 500
  bool use_ocba = true;
  bool use_memetic = true;
  /// Per-feasible-candidate MC sample count when use_ocba is false
  /// (the AS+LHS / AS+PMC baselines of Tables 1-4).
  int fixed_budget = 500;
  /// Trigger NM local search after this many generations without
  /// improvement of the best yield (paper: 5).
  int local_search_stagnation = 5;
  int nm_max_iterations = 10;     ///< paper: "about 10 iterations"
  /// Stop after this many generations without improvement (paper: 20).
  int stop_stagnation = 20;
  int max_generations = 200;
  int threads = 0;                ///< MC worker threads; 0 = hardware
  /// Generation-wide evaluation scheduler knobs (per-worker session-cache
  /// capacity, chunk size, warm-start blob store).  The optimizer owns one
  /// EvalScheduler for its whole run, so session caches persist across
  /// generations.
  mc::SchedulerOptions scheduler;
  std::uint64_t seed = 1;
  /// Crash-safe checkpointing: when non-empty, the optimizer writes its
  /// full generation-granular state (population, tallies, RNG streams,
  /// counters, warm-blob store) into this directory after every generation,
  /// each file landing via atomic temp-file + rename.  Checkpoint mode
  /// normalizes the scheduler at each generation boundary (live sessions
  /// parked to the blob store) so a resumed run rebuilds the exact same
  /// scheduler state; MC tallies and reported results are unchanged, but
  /// warm-path scheduler event counts differ from a non-checkpointed run.
  std::string checkpoint_dir;
  /// With `resume`, run() first tries to load `checkpoint_dir`'s state and
  /// continues from the last completed generation; the final result is
  /// bit-identical to the uninterrupted run (single-threaded; with threads
  /// the MC tallies still match but timing-dependent scheduler event
  /// counters may differ).  A missing checkpoint starts fresh; a checkpoint
  /// from a different problem/options shape throws.
  bool resume = false;
  /// Cooperative cancellation hook, polled at generation boundaries (after
  /// every flush point, before the next generation's work is enqueued).
  /// When it returns true the run stops early: pending deferred batches are
  /// drained (the scheduler stays consistent), the current best is reported
  /// without the final accurate refinement, and MohecoResult::cancelled is
  /// set.  Null (the default) never cancels.  The serving daemon points
  /// this at the job's cancel flag.
  std::function<bool()> should_stop;
};

/// One population member's bookkeeping.  Feasible members keep their MC
/// tally alive across generations: the ordinal-optimization stage treats
/// the whole current population as the candidate set, so surviving parents
/// keep accumulating samples whenever the OCBA rule judges them worth
/// refining.  This also removes the maximization bias a frozen noisy
/// estimate of the best member would otherwise inject.  Evaluator sessions
/// are not pinned here: they live in the optimizer's EvalScheduler caches,
/// bounded by the session-cache capacity rather than by population size.
struct Member {
  std::vector<double> x;
  opt::Fitness fitness;
  long long samples = 0;  ///< MC samples behind fitness.yield
  std::shared_ptr<mc::CandidateYield> tally;  ///< null for infeasible members
};

/// Per-generation record (drives Fig. 3, the convergence plots and the
/// Section 3.4 response-surface study).
struct GenerationTrace {
  int generation = 0;
  double best_yield = 0.0;
  bool best_feasible = false;
  long long sims_cumulative = 0;
  int num_feasible_trials = 0;
  bool local_search_triggered = false;
  /// (yield estimate, sample count) of every feasible candidate that was
  /// MC-estimated this generation -- the OCBA allocation picture.
  std::vector<std::pair<double, long long>> estimated;
  /// (x, yield estimate) pairs for response-surface training data.
  std::vector<std::pair<std::vector<double>, double>> data_points;
};

struct MohecoResult {
  Member best;
  long long total_simulations = 0;
  /// Per-phase split of total_simulations (screen / stage-1 / OCBA rounds /
  /// stage-2 / other), for the ablation benches' budget accounting.
  mc::SimBreakdown sim_breakdown;
  /// Warm-path scheduler events of the run (session cache hits, cold/warm
  /// opens, affinity hits, steals, migrations).
  mc::SchedBreakdown sched_breakdown;
  /// Candidates quarantined by the fault-containment layer, split by where
  /// the failure surfaced (session open / estimation / screen).  All zero
  /// on a healthy run.
  mc::FailBreakdown fail_breakdown;
  int generations = 0;
  bool reached_full_yield = false;
  /// True when MohecoOptions::should_stop ended the run early; `best` is
  /// the best member found so far (skipping the final n_report refinement).
  bool cancelled = false;
  std::vector<GenerationTrace> trace;
};

class MohecoOptimizer {
 public:
  MohecoOptimizer(const mc::YieldProblem& problem, MohecoOptions options);

  /// Borrowing constructor: runs on a caller-owned scheduler (and its
  /// thread pool) instead of constructing one per optimizer.  The serving
  /// daemon multiplexes every deck job onto ONE shared pool this way, so
  /// recurring decks find the scheduler's warm state.  `options.threads`
  /// is ignored; the caller must not touch `scheduler` while run() is in
  /// flight, and owns purging problem-specific state afterwards
  /// (EvalScheduler::forget_problem) if the problem outlives the run.
  MohecoOptimizer(const mc::YieldProblem& problem, MohecoOptions options,
                  mc::EvalScheduler& scheduler);

  MohecoResult run();

  /// Runs only the population initialization and one DE generation, then
  /// returns.  Used by the Fig. 3 bench to inspect a "typical population".
  MohecoResult run_generations(int generations);

  /// The run-wide evaluation scheduler.  Exposed so drivers can persist the
  /// warm-start blob store across runs (EvalScheduler::export_blobs /
  /// import_blobs through a ResultsCache); call only outside run().
  mc::EvalScheduler& scheduler() { return *scheduler_; }

 private:
  struct Evaluated {
    opt::Fitness fitness;
    long long samples = 0;
    std::shared_ptr<mc::CandidateYield> tally;
  };

  /// Screens a batch of candidate vectors (one generation's trials or the
  /// initial population), then estimates the feasible ones together with
  /// the feasible current population members (the generation's OO candidate
  /// pool).  Updates population fitnesses in place and appends OCBA
  /// bookkeeping to `trace` when non-null.
  std::vector<Evaluated> evaluate_batch(
      const std::vector<std::vector<double>>& xs, GenerationTrace* trace);

  /// Full-accuracy (n_max) evaluation of one point, used by the NM local
  /// search and the final reporting.
  Evaluated evaluate_accurate(std::span<const double> x);

  void init_bounds(const mc::YieldProblem& problem);
  std::size_t best_index() const;
  /// Checkpoint-mode generation boundary: drains the deferred stage-2
  /// batches, normalizes the scheduler (EvalScheduler::checkpoint_blobs)
  /// and atomically writes the full run state to options_.checkpoint_dir.
  void write_checkpoint(int generation, bool done, const MohecoResult& result,
                        double best_scalar, int stagnant_ls,
                        int stagnant_stop);
  /// Restores the run state saved by write_checkpoint.  Returns false when
  /// no checkpoint exists (fresh start); throws when one exists but does
  /// not match this run's problem/options shape.
  bool resume_from_checkpoint(MohecoResult& result, double& best_scalar,
                              int& stagnant_ls, int& stagnant_stop,
                              int& start_gen, bool& loop_done);
  /// Folds each surviving member's tally back into its fitness/samples.
  /// Must run after every flush point that can land deferred stage-2
  /// samples, or selection would read stale yields.
  void refresh_population_fitness();
  void local_search(Member& best, GenerationTrace* trace);
  MohecoResult run_impl(int max_generations);

  const mc::YieldProblem* problem_;
  MohecoOptions options_;
  opt::Bounds bounds_;
  /// Owned when default-constructed, null when the caller supplied a shared
  /// scheduler (the daemon's pool) through the borrowing constructor.
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<mc::EvalScheduler> owned_scheduler_;
  /// Generation-wide batched evaluation: one scheduler for the whole run,
  /// so per-worker session caches stay warm across generations.
  mc::EvalScheduler* scheduler_;
  mc::SimCounter sims_;
  stats::Rng rng_;
  std::uint64_t stream_counter_ = 0;
  std::vector<Member> population_;
  /// Best vector at the time of the previous NM local search; the search is
  /// not re-triggered while the best member is unchanged (re-running NM from
  /// the same simplex seed would repeat the same expensive, fruitless walk).
  std::vector<double> last_local_search_x_;
};

}  // namespace moheco::core
