#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/common/parallel.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/mc/ocba.hpp"
#include "src/mc/synthetic.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/summary.hpp"

namespace moheco::mc {
namespace {

TEST(Parallel, RunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](int, std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](int, std::size_t i) {
                                   if (i == 5) throw InvalidArgument("boom");
                                 }),
               InvalidArgument);
  // Pool must still be usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](int, std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 10);
}

TEST(Quadratic, TrueYieldMatchesMc) {
  const QuadraticYieldProblem problem(2, 8, 1.0, 0.5);
  const std::vector<double> x = {0.5, 0.5};
  ThreadPool pool(4);
  const double estimate = reference_yield(problem, x, 40000, 42, pool);
  EXPECT_NEAR(estimate, problem.true_yield(x), 0.01);
}

TEST(Quadratic, NominalScreen) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.3);
  auto inside = problem.open(std::vector<double>{0.2, 0.2});
  EXPECT_TRUE(inside->evaluate({}).pass);
  auto outside = problem.open(std::vector<double>{1.5, 1.5});
  const SampleResult r = outside->evaluate({});
  EXPECT_FALSE(r.pass);
  EXPECT_GT(r.violation, 0.0);
}

TEST(CandidateYield, ScreenCountsOneSim) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.3);
  CandidateYield c(problem, {0.1, 0.1}, 1);
  ThreadPool pool(2);
  EvalScheduler scheduler(pool);
  SimCounter sims;
  CandidateYield* one[] = {&c};
  scheduler.screen(one, sims);
  scheduler.screen(one, sims);  // cached
  EXPECT_EQ(sims.total(), 1);
  EXPECT_TRUE(c.nominal_feasible());
}

TEST(CandidateYield, RefineAccumulatesAndCounts) {
  const QuadraticYieldProblem problem(2, 4, 1.0, 0.5);
  ThreadPool pool(4);
  SimCounter sims;
  CandidateYield c(problem, {0.3, 0.3}, 7);
  EvalScheduler scheduler(pool);
  scheduler.refine(c, 100, sims, McOptions{});
  EXPECT_EQ(c.samples(), 100);
  EXPECT_EQ(sims.total(), 100);
  scheduler.refine(c, 50, sims, McOptions{});
  EXPECT_EQ(c.samples(), 150);
  EXPECT_EQ(sims.total(), 150);
  EXPECT_GE(c.mean(), 0.0);
  EXPECT_LE(c.mean(), 1.0);
}

TEST(CandidateYield, DeterministicAcrossThreadCounts) {
  const QuadraticYieldProblem problem(3, 6, 1.0, 0.4);
  const std::vector<double> x = {0.4, 0.3, 0.2};
  long long passes1 = 0, passes4 = 0;
  {
    ThreadPool pool(1);
    SimCounter sims;
    CandidateYield c(problem, x, 99);
    EvalScheduler(pool).refine(c, 500, sims, McOptions{});
    passes1 = c.passes();
  }
  {
    ThreadPool pool(4);
    SimCounter sims;
    CandidateYield c(problem, x, 99);
    EvalScheduler(pool).refine(c, 500, sims, McOptions{});
    passes4 = c.passes();
  }
  EXPECT_EQ(passes1, passes4);
}

TEST(CandidateYield, EstimateConvergesToTruth) {
  const QuadraticYieldProblem problem(2, 10, 1.0, 0.5);
  const std::vector<double> x = {0.6, 0.3};
  ThreadPool pool(8);
  SimCounter sims;
  CandidateYield c(problem, x, 5);
  EvalScheduler(pool).refine(c, 20000, sims, McOptions{});
  EXPECT_NEAR(c.mean(), problem.true_yield(x), 0.015);
}

TEST(CandidateYield, SmoothedVarianceNeverZero) {
  const BernoulliArmsProblem problem({1.0});
  ThreadPool pool(2);
  SimCounter sims;
  CandidateYield c(problem, {0.0}, 3);
  EvalScheduler(pool).refine(c, 200, sims, McOptions{});
  EXPECT_EQ(c.mean(), 1.0);  // arm with yield 1 always passes
  EXPECT_GT(c.smoothed_variance(), 0.0);
}

TEST(Ocba, AllocationSumsToTotal) {
  const std::vector<double> means = {0.9, 0.7, 0.5, 0.3};
  const std::vector<double> vars = {0.09, 0.21, 0.25, 0.21};
  for (long long total : {10LL, 100LL, 999LL, 12345LL}) {
    const auto n = ocba_allocation(means, vars, total);
    EXPECT_EQ(std::accumulate(n.begin(), n.end(), 0LL), total);
    for (long long v : n) EXPECT_GE(v, 0);
  }
}

TEST(Ocba, RatiosFollowEquationOne) {
  // Two non-best candidates i, j: n_i/n_j = (sigma_i/delta_i)^2/(sigma_j/delta_j)^2.
  const std::vector<double> means = {0.9, 0.8, 0.5};
  const std::vector<double> vars = {0.09, 0.16, 0.25};
  const auto n = ocba_allocation(means, vars, 1000000);
  const double di = 0.1, dj = 0.4;
  const double expected_ratio = (vars[1] / (di * di)) / (vars[2] / (dj * dj));
  const double actual_ratio =
      static_cast<double>(n[1]) / static_cast<double>(n[2]);
  EXPECT_NEAR(actual_ratio, expected_ratio, 0.01 * expected_ratio);
}

TEST(Ocba, BestGetsSqrtRule) {
  const std::vector<double> means = {0.9, 0.8, 0.5};
  const std::vector<double> vars = {0.09, 0.16, 0.25};
  const auto n = ocba_allocation(means, vars, 1000000);
  // n_b = sigma_b * sqrt(sum_{i!=b} n_i^2 / sigma_i^2)
  const double expected = std::sqrt(vars[0]) *
                          std::sqrt(static_cast<double>(n[1]) * n[1] / vars[1] +
                                    static_cast<double>(n[2]) * n[2] / vars[2]);
  EXPECT_NEAR(static_cast<double>(n[0]), expected, 0.02 * expected);
}

TEST(Ocba, CloseCompetitorOutweighsDistantOne) {
  // The candidate nearest to the best must receive more samples.
  const std::vector<double> means = {0.95, 0.93, 0.40};
  const std::vector<double> vars = {0.05, 0.07, 0.24};
  const auto n = ocba_allocation(means, vars, 10000);
  EXPECT_GT(n[1], 5 * n[2]);
}

TEST(Ocba, SingleCandidateTakesAll) {
  const auto n = ocba_allocation(std::vector<double>{0.5},
                                 std::vector<double>{0.25}, 77);
  ASSERT_EQ(n.size(), 1u);
  EXPECT_EQ(n[0], 77);
}

TEST(TwoStage, SpendsApproxSimAvgTimesN) {
  const QuadraticYieldProblem problem(2, 6, 1.0, 0.5);
  ThreadPool pool(4);
  SimCounter sims;
  std::vector<std::unique_ptr<CandidateYield>> owners;
  std::vector<CandidateYield*> cands;
  stats::Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    // Designs of varying quality, all nominally feasible.
    const double r = 0.08 * i;
    owners.push_back(std::make_unique<CandidateYield>(
        problem, std::vector<double>{r, 0.0}, 100 + i));
    cands.push_back(owners.back().get());
  }
  EvalScheduler(pool).screen(cands, sims);
  const long long screen_cost = sims.total();
  TwoStageOptions options;
  options.n0 = 15;
  options.sim_avg = 35;
  options.n_max = 200;
  options.stage2_threshold = 2.0;  // disable stage 2 for this test
  two_stage_estimate(cands, options, pool, sims);
  const long long spent = sims.total() - screen_cost;
  EXPECT_GE(spent, 35 * 10 - 20);
  EXPECT_LE(spent, 35 * 10 + 20);
  for (const auto& c : owners) EXPECT_GE(c->samples(), 15);
}

TEST(TwoStage, PromotesHighYieldCandidates) {
  // One arm at 100% yield, others low: the good one must reach n_max.
  const BernoulliArmsProblem problem({1.0, 0.3, 0.2, 0.1});
  ThreadPool pool(4);
  SimCounter sims;
  std::vector<std::unique_ptr<CandidateYield>> owners;
  std::vector<CandidateYield*> cands;
  for (int i = 0; i < 4; ++i) {
    owners.push_back(std::make_unique<CandidateYield>(
        problem, std::vector<double>{static_cast<double>(i)}, 10 + i));
    cands.push_back(owners.back().get());
  }
  EvalScheduler(pool).screen(cands, sims);
  TwoStageOptions options;
  options.n0 = 15;
  options.sim_avg = 35;
  options.n_max = 300;
  options.stage2_threshold = 0.97;
  const auto promoted = two_stage_estimate(cands, options, pool, sims);
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_EQ(promoted[0], 0u);
  EXPECT_EQ(owners[0]->samples(), 300);
  EXPECT_EQ(owners[0]->mean(), 1.0);
  // Bad arms stay cheap.
  EXPECT_LT(owners[3]->samples(), 100);
}

TEST(TwoStage, OcbaBeatsEqualAllocationOnSelection) {
  // Probability of correctly identifying the best arm under a tight budget:
  // OCBA allocation must beat equal allocation.  PMC sampling (LHS would
  // make 1-D Bernoulli estimation nearly exact and hide the effect).
  const BernoulliArmsProblem problem({0.74, 0.78, 0.55, 0.40, 0.82});
  ThreadPool pool(4);
  const int kReps = 250;
  const long long budget = 250;
  McOptions pmc;
  pmc.sampling = stats::SamplingMethod::kPMC;
  int correct_ocba = 0, correct_equal = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    // --- OCBA (via two_stage_estimate with threshold off). ---
    {
      SimCounter sims;
      std::vector<std::unique_ptr<CandidateYield>> owners;
      std::vector<CandidateYield*> cands;
      for (int i = 0; i < 5; ++i) {
        owners.push_back(std::make_unique<CandidateYield>(
            problem, std::vector<double>{static_cast<double>(i)},
            stats::derive_seed(999, rep, i)));
        cands.push_back(owners.back().get());
      }
      TwoStageOptions options;
      options.n0 = 15;
      options.sim_avg = static_cast<int>(budget / 5);
      options.n_max = 100000;
      options.stage2_threshold = 2.0;
      options.mc = pmc;
      two_stage_estimate(cands, options, pool, sims);
      std::size_t best = 0;
      for (std::size_t i = 1; i < owners.size(); ++i) {
        if (owners[i]->mean() > owners[best]->mean()) best = i;
      }
      if (best == 4) ++correct_ocba;
    }
    // --- Equal allocation, same total budget. ---
    {
      SimCounter sims;
      std::size_t best = 0;
      double best_mean = -1.0;
      for (int i = 0; i < 5; ++i) {
        CandidateYield c(problem, std::vector<double>{static_cast<double>(i)},
                         stats::derive_seed(999, rep, i));
        EvalScheduler(pool).refine(c, budget / 5, sims, pmc);
        if (c.mean() > best_mean) {
          best_mean = c.mean();
          best = static_cast<std::size_t>(i);
        }
      }
      if (best == 4) ++correct_equal;
    }
  }
  EXPECT_GT(correct_ocba, correct_equal);
}

}  // namespace
}  // namespace moheco::mc
