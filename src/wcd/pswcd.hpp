// Performance-Specific Worst-Case Design (PSWCD) baseline -- the
// non-statistical method the paper's Section 3.4 argues against.
//
// For each candidate design and each specification, the worst-case process
// point within a k-sigma ball is estimated from a linear model of that
// metric over the process variables (fitted on a small pilot sample).  A
// candidate is "worst-case feasible" when it meets every spec at that
// spec's own worst-case point.  Because the per-spec worst cases are
// distinct process points that cannot occur simultaneously, requiring all
// of them at once is pessimistic -- the structural over-design the paper
// describes.  The optimizer minimizes power subject to worst-case
// feasibility, so the over-design shows up directly as excess power
// relative to a MOHECO design of equal (real, MC-verified) yield.
#pragma once

#include <cstdint>
#include <vector>

#include "src/circuits/circuit_yield.hpp"
#include "src/common/parallel.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/mc/sim_counter.hpp"

namespace moheco::wcd {

struct PswcdOptions {
  double k_sigma = 3.0;  ///< worst-case search radius in sigma units
  int pilot_samples = 24;
  int population = 24;
  int max_generations = 40;
  int threads = 0;
  std::uint64_t seed = 1;
};

struct WorstCaseReport {
  bool feasible = false;        ///< all specs met at their worst-case points
  double worst_violation = 0.0; ///< sum of normalized worst-case violations
  double nominal_power = 0.0;
  bool nominal_feasible = false;
};

struct PswcdResult {
  std::vector<double> best_x;
  WorstCaseReport best_report;
  long long total_simulations = 0;
  int generations = 0;
};

class PswcdOptimizer {
 public:
  PswcdOptimizer(const circuits::CircuitYieldProblem& problem,
                 PswcdOptions options);

  /// Worst-case analysis of a single design point (used by the bench to
  /// show that high-yield MOHECO designs are rejected by PSWCD).
  WorstCaseReport analyze(std::span<const double> x);

  PswcdResult run();

  long long simulations() const { return sims_.total(); }

 private:
  const circuits::CircuitYieldProblem* problem_;
  PswcdOptions options_;
  ThreadPool pool_;
  /// All evaluations (nominal, pilot sweep, worst-case verification) run
  /// through the scheduler's cached sessions: chunked claiming spreads the
  /// pilot sample across the pool, and a re-analysis of a design point
  /// whose session is still cached skips the nominal re-measurement.
  mc::EvalScheduler scheduler_;
  mc::SimCounter sims_;
};

}  // namespace moheco::wcd
