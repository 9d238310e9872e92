// Ablation: OCBA (eq. 1) vs equal allocation at identical total budgets.
// Measures the probability of correctly selecting the best design from a
// noisy population -- the quantity OCBA optimizes asymptotically.
#include <cstdio>
#include <iostream>

#include "bench/bench_support.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/mc/ocba.hpp"
#include "src/mc/synthetic.hpp"
#include "src/stats/rng.hpp"

int main(int argc, char** argv) {
  using namespace moheco;
  using namespace moheco::mc;
  const BenchOptions options = bench::bench_prologue(
      argc, argv, "Ablation: OCBA vs equal allocation (P[correct selection])");
  const BernoulliArmsProblem problem(
      {0.74, 0.78, 0.55, 0.40, 0.82, 0.66, 0.71, 0.30, 0.50, 0.79});
  const auto arms = problem.yields().size();
  ThreadPool pool(options.threads);
  EvalScheduler scheduler(pool);
  McOptions pmc;
  pmc.sampling = stats::SamplingMethod::kPMC;
  const int reps = options.scale == BenchScale::kFull ? 500 : 150;

  Table table({"budget (sims/arm avg)", "equal allocation", "OCBA",
               "OCBA advantage"});
  std::string json_rows;
  for (int budget_per_arm : {25, 35, 50, 80}) {
    int correct_equal = 0, correct_ocba = 0;
    long long equal_sims = 0;
    SimBreakdown ocba_breakdown;
    for (int rep = 0; rep < reps; ++rep) {
      // Equal allocation.
      {
        std::size_t best = 0;
        double best_mean = -1.0;
        SimCounter sims;
        for (std::size_t i = 0; i < arms; ++i) {
          CandidateYield c(problem, {static_cast<double>(i)},
                           stats::derive_seed(options.seed, rep, i));
          scheduler.refine(c, budget_per_arm, sims, pmc);
          if (c.mean() > best_mean) {
            best_mean = c.mean();
            best = i;
          }
        }
        if (best == 4) ++correct_equal;
        equal_sims += sims.total();
      }
      // OCBA at the same total budget.
      {
        SimCounter sims;
        std::vector<std::unique_ptr<CandidateYield>> owners;
        std::vector<CandidateYield*> cands;
        for (std::size_t i = 0; i < arms; ++i) {
          owners.push_back(std::make_unique<CandidateYield>(
              problem, std::vector<double>{static_cast<double>(i)},
              stats::derive_seed(options.seed, rep, i)));
          cands.push_back(owners.back().get());
        }
        TwoStageOptions two_stage;
        two_stage.n0 = 15;
        two_stage.sim_avg = budget_per_arm;
        two_stage.n_max = 1 << 20;
        two_stage.stage2_threshold = 2.0;  // pure stage-1 comparison
        two_stage.mc = pmc;
        two_stage_estimate(cands, two_stage, pool, sims);
        std::size_t best = 0;
        for (std::size_t i = 1; i < arms; ++i) {
          if (owners[i]->mean() > owners[best]->mean()) best = i;
        }
        if (best == 4) ++correct_ocba;
        ocba_breakdown += sims.breakdown();
      }
    }
    char eq[32], oc[32], adv[32];
    std::snprintf(eq, sizeof(eq), "%.1f%%", 100.0 * correct_equal / reps);
    std::snprintf(oc, sizeof(oc), "%.1f%%", 100.0 * correct_ocba / reps);
    std::snprintf(adv, sizeof(adv), "%+.1f pts",
                  100.0 * (correct_ocba - correct_equal) / reps);
    table.add_row({std::to_string(budget_per_arm), eq, oc, adv});
    char row[512];
    std::snprintf(row, sizeof(row),
                  "%s{\"budget_per_arm\":%d,\"p_correct_equal\":%.4f,"
                  "\"p_correct_ocba\":%.4f,\"equal_sims\":%lld,"
                  "\"ocba_sims\":",
                  json_rows.empty() ? "" : ",", budget_per_arm,
                  static_cast<double>(correct_equal) / reps,
                  static_cast<double>(correct_ocba) / reps, equal_sims);
    json_rows += row;
    json_rows += bench::json_sim_breakdown(ocba_breakdown);
    json_rows += "}";
  }
  table.print(std::cout,
              "P[select the true best of 10 Bernoulli designs], " +
                  std::to_string(reps) + " repetitions");
  std::cout << "expected: OCBA above equal allocation at every budget\n";
  if (!bench::write_bench_json(options.json, "bench_ablation_ocba",
                               "\"budgets\":[" + json_rows + "]")) {
    return 1;
  }
  return 0;
}
