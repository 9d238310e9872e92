// NetlistYieldProblem: the deck path and the hand-coded C++ path must share
// one evaluation pipeline.  The committed examples/five_t_ota.cir is the
// data twin of circuits::make_five_transistor_ota(); these tests prove the
// identity all the way from netlist construction to Monte-Carlo tallies and
// whole optimizer runs, plus the deck-problem session/warm-blob contract
// and the scheduler's cross-run blob persistence.
#include "src/circuits/netlist_problem.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/circuits/circuit_yield.hpp"
#include "src/circuits/topology.hpp"
#include "src/common/results_cache.hpp"
#include "src/core/moheco.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/spice/netlist_format.hpp"
#include "src/stats/rng.hpp"

namespace moheco::circuits {
namespace {

std::string example_deck_path() {
  return std::string(MOHECO_SOURCE_DIR) + "/examples/five_t_ota.cir";
}

spice::Deck example_deck() { return spice::parse_deck_file(example_deck_path()); }

TEST(DeckTopology, MatchesBuiltinFiveTransistorOta) {
  const DeckTopology deck_topology(example_deck());
  const auto builtin = make_five_transistor_ota();

  ASSERT_EQ(deck_topology.design_vars().size(),
            builtin->design_vars().size());
  for (std::size_t i = 0; i < builtin->design_vars().size(); ++i) {
    EXPECT_EQ(deck_topology.design_vars()[i].name,
              builtin->design_vars()[i].name);
    EXPECT_EQ(deck_topology.design_vars()[i].lo,
              builtin->design_vars()[i].lo);
    EXPECT_EQ(deck_topology.design_vars()[i].hi,
              builtin->design_vars()[i].hi);
  }
  EXPECT_EQ(deck_topology.num_transistors(), builtin->num_transistors());

  ASSERT_EQ(deck_topology.specs().size(), builtin->specs().size());
  for (std::size_t i = 0; i < builtin->specs().size(); ++i) {
    EXPECT_EQ(deck_topology.specs()[i].metric, builtin->specs()[i].metric);
    EXPECT_EQ(deck_topology.specs()[i].lower_bound,
              builtin->specs()[i].lower_bound);
    EXPECT_EQ(deck_topology.specs()[i].bound, builtin->specs()[i].bound);
    EXPECT_EQ(deck_topology.specs()[i].scale, builtin->specs()[i].scale);
    EXPECT_EQ(deck_topology.specs()[i].label, builtin->specs()[i].label);
  }

  // The statistical model is the built-in 0.35um card.
  EXPECT_EQ(deck_topology.tech().inter_die.size(),
            builtin->tech().inter_die.size());
  EXPECT_EQ(deck_topology.tech().mismatch_nmos.a_vth,
            builtin->tech().mismatch_nmos.a_vth);

  // Bit-identical netlists at the deck's nominal design point: same node
  // table, same device order, same values (the round-trip helper lives in
  // test_deck_parser.cpp; here the exported decks being byte-identical is
  // an equivalent, simpler statement).
  const std::vector<double> x = deck_topology.nominal_x();
  EXPECT_EQ(spice::to_spice_deck(deck_topology.build(x).netlist, "twin"),
            spice::to_spice_deck(builtin->build(x).netlist, "twin"));
}

TEST(NetlistYieldProblem, NominalPerformanceMatchesBuiltin) {
  NetlistYieldProblem deck_problem(example_deck());
  const CircuitYieldProblem builtin(make_five_transistor_ota());
  const std::vector<double> x = deck_problem.nominal_x();

  const Performance a = deck_problem.performance(x, {});
  const Performance b = builtin.performance(x, {});
  EXPECT_TRUE(a.valid);
  EXPECT_EQ(a.a0_db, b.a0_db);
  EXPECT_EQ(a.gbw, b.gbw);
  EXPECT_EQ(a.pm_deg, b.pm_deg);
  EXPECT_EQ(a.swing, b.swing);
  EXPECT_EQ(a.power, b.power);
  EXPECT_EQ(a.offset, b.offset);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.sat_margin, b.sat_margin);
}

TEST(NetlistYieldProblem, IdenticalTalliesWithBuiltinProblem) {
  // The acceptance gate of the deck frontend: same design vector, same
  // sample stream seed => bit-identical pass/fail per sample, so the yield
  // tallies agree exactly (not just within MC noise).
  NetlistYieldProblem deck_problem(example_deck());
  const CircuitYieldProblem builtin(make_five_transistor_ota());
  ASSERT_EQ(deck_problem.noise_dim(), builtin.noise_dim());
  const std::vector<double> x = deck_problem.nominal_x();

  ThreadPool pool(4);
  mc::EvalScheduler scheduler(pool);
  mc::SimCounter sims;
  mc::CandidateYield deck_tally(deck_problem, x, /*stream_seed=*/77);
  mc::CandidateYield builtin_tally(builtin, x, /*stream_seed=*/77);
  mc::CandidateYield* both[] = {&deck_tally, &builtin_tally};
  scheduler.screen(both, sims);
  EXPECT_EQ(deck_tally.nominal_feasible(), builtin_tally.nominal_feasible());
  EXPECT_EQ(deck_tally.nominal_violation(), builtin_tally.nominal_violation());
  scheduler.refine(deck_tally, 400, sims, {});
  scheduler.refine(builtin_tally, 400, sims, {});
  EXPECT_EQ(deck_tally.samples(), builtin_tally.samples());
  EXPECT_EQ(deck_tally.passes(), builtin_tally.passes());
  // The committed nominal sits mid-yield on purpose, so this comparison
  // exercises both pass and fail samples.
  EXPECT_GT(deck_tally.passes(), 0);
  EXPECT_LT(deck_tally.passes(), deck_tally.samples());
}

TEST(NetlistYieldProblem, OptimizerRunsAreIdentical) {
  // Whole-pipeline identity: the optimizer over the deck problem follows
  // the exact trajectory of the built-in problem under the same seed.
  NetlistYieldProblem deck_problem(example_deck());
  const CircuitYieldProblem builtin(make_five_transistor_ota());

  core::MohecoOptions options;
  options.population = 10;
  options.max_generations = 2;
  options.stop_stagnation = 2;
  options.seed = 5;
  options.threads = 4;
  core::MohecoOptimizer deck_opt(deck_problem, options);
  core::MohecoOptimizer builtin_opt(builtin, options);
  const core::MohecoResult a = deck_opt.run_generations(2);
  const core::MohecoResult b = builtin_opt.run_generations(2);
  EXPECT_EQ(a.best.x, b.best.x);
  EXPECT_EQ(a.best.fitness.yield, b.best.fitness.yield);
  EXPECT_EQ(a.best.samples, b.best.samples);
  EXPECT_EQ(a.total_simulations, b.total_simulations);
}

TEST(NetlistYieldProblem, WarmStartBlobRoundTrip) {
  NetlistYieldProblem problem(example_deck());
  const std::vector<double> x = problem.nominal_x();
  const auto cold = problem.open(x);
  const std::vector<double> blob = cold->warm_start_blob();
  ASSERT_FALSE(blob.empty());
  const auto warm = problem.open_warm(x, blob);

  stats::Rng rng(123);
  std::vector<double> xi(problem.noise_dim());
  for (int rep = 0; rep < 5; ++rep) {
    for (double& v : xi) v = rng.normal();
    const mc::SampleResult a = warm->evaluate(xi);
    const mc::SampleResult b = problem.open(x)->evaluate(xi);
    EXPECT_EQ(a.pass, b.pass);
    EXPECT_EQ(a.violation, b.violation);
  }

  // A foreign blob (different design point) must degrade to a cold open,
  // not poison the session.
  std::vector<double> y = x;
  y[0] *= 1.5;
  const auto fallback = problem.open_warm(y, blob);
  const mc::SampleResult a = fallback->evaluate({});
  const mc::SampleResult b = problem.open(y)->evaluate({});
  EXPECT_EQ(a.pass, b.pass);
}

TEST(NetlistYieldProblem, BlobStorePersistsAcrossSchedulers) {
  // The ResultsCache-backed warm-start spill: a second scheduler seeded
  // from the first one's export revives sessions instead of re-running the
  // nominal measurement, with identical estimates.
  NetlistYieldProblem problem(example_deck());
  const std::vector<double> x = problem.nominal_x();
  ThreadPool pool(2);

  mc::EvalScheduler first(pool);
  const double yield_first = mc::reference_yield(problem, x, 200, 11, first);
  const ResultMap exported = first.export_blobs();
  ASSERT_FALSE(exported.empty());

  // Round-trip the snapshot through a ResultsCache file, as the CLI does.
  char dir[] = "/tmp/moheco_blob_test_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const ResultsCache cache{std::string(dir)};
  cache.store("blobs", exported);
  const auto loaded = cache.load("blobs");
  ASSERT_TRUE(loaded.has_value());

  mc::EvalScheduler second(pool);
  EXPECT_EQ(second.import_blobs(problem, *loaded), exported.size());
  const double yield_second = mc::reference_yield(problem, x, 200, 11, second);
  EXPECT_EQ(yield_first, yield_second);
  EXPECT_GT(second.warm_opens(), 0);
  EXPECT_EQ(second.session_opens(), second.warm_opens());  // no cold opens

  std::remove((std::string(dir) + "/blobs.txt").c_str());
  ::rmdir(dir);
}

TEST(NetlistYieldProblem, RejectsDecksMissingProbes) {
  const char* no_supply =
      "* t\n"
      ".param w=1e-05 lo=1e-06 hi=1e-04\n"
      "Vdd vdd 0 DC 1.2\n"
      "M1 out vdd 0 0 nm W={w} L=1e-06\n"
      "R1 out vdd 10k\n"
      ".model nm NMOS (VTO=0.3)\n"
      ".probe out out\n";
  EXPECT_THROW(NetlistYieldProblem(spice::parse_deck_string(no_supply)),
               spice::DeckError);

  const char* no_design =
      "* t\n"
      "Vdd vdd 0 DC 1.2\n"
      "M1 out vdd 0 0 nm W=1e-05 L=1e-06\n"
      "R1 out vdd 10k\n"
      ".model nm NMOS (VTO=0.3)\n"
      ".probe out out\n"
      ".probe supply Vdd\n";
  EXPECT_THROW(NetlistYieldProblem(spice::parse_deck_string(no_design)),
               spice::DeckError);

  const char* bad_metric =
      "* t\n"
      ".param w=1e-05 lo=1e-06 hi=1e-04\n"
      "Vdd vdd 0 DC 1.2\n"
      "M1 out vdd 0 0 nm W={w} L=1e-06\n"
      "R1 out vdd 10k\n"
      ".model nm NMOS (VTO=0.3)\n"
      ".spec psrr >= 60\n"
      ".probe out out\n"
      ".probe supply Vdd\n";
  EXPECT_THROW(NetlistYieldProblem(spice::parse_deck_string(bad_metric)),
               spice::DeckError);

  // Transient evaluation without a .probe step card is refused up front.
  EvalOptions transient;
  transient.transient = true;
  EXPECT_THROW(NetlistYieldProblem(example_deck(), transient),
               InvalidArgument);

  // Spec bounds are fixed per problem: an expression that follows the
  // design vector would silently freeze at the nominal sizing, so it is
  // rejected with a diagnostic instead.
  const char* design_dependent_spec =
      "* t\n"
      ".param w=1e-05 lo=1e-06 hi=1e-04\n"
      ".param derived={w*2}\n"
      "Vdd vdd 0 DC 1.2\n"
      "M1 out vdd 0 0 nm W={w} L=1e-06\n"
      "R1 out vdd 10k\n"
      ".model nm NMOS (VTO=0.3)\n"
      ".spec area <= {derived*1e-06}\n"
      ".probe out out\n"
      ".probe supply Vdd\n";
  EXPECT_THROW(
      NetlistYieldProblem(spice::parse_deck_string(design_dependent_spec)),
      spice::DeckError);
}

TEST(DeckTopology, StepProbeEvaluatesPerDesignPoint) {
  // TSTOP/SETTLE expressions referencing design parameters must follow the
  // design vector, not stay frozen at the deck's nominal values.
  const char* deck_text =
      "* step probe\n"
      ".param w=2e-05 lo=1e-06 hi=1e-04\n"
      ".param tau=1e-06 lo=1e-07 hi=1e-05\n"
      ".param f=0.01 lo=0.001 hi=0.1\n"
      "Vdd vdd 0 DC 1.2\n"
      "Vstep in 0 DC 0.6 PULSE(0.6 0.8 1e-07 1e-09 1e-09 1e-05 0)\n"
      "M1 out in 0 0 nm W={w} L=1e-06\n"
      "R1 out vdd 10k\n"
      "CL out 0 1e-12\n"
      ".model nm NMOS (VTO=0.3)\n"
      ".spec settling_time <= 1u\n"
      ".probe out out\n"
      ".probe supply Vdd\n"
      ".probe step Vstep TSTOP={3*tau} SETTLE={f}\n";
  const DeckTopology topology(spice::parse_deck_string(deck_text));
  EXPECT_TRUE(topology.has_step_bench());
  ASSERT_EQ(topology.specs().size(), 0u);
  ASSERT_EQ(topology.transient_specs().size(), 1u);

  const double x1[] = {2e-5, 1e-6, 0.01};
  const double x2[] = {2e-5, 2e-6, 0.05};
  const BuiltCircuit b1 = topology.build(x1, Testbench::kStepBuffer);
  const BuiltCircuit b2 = topology.build(x2, Testbench::kStepBuffer);
  EXPECT_DOUBLE_EQ(b1.step.t_stop, 3e-6);
  EXPECT_DOUBLE_EQ(b2.step.t_stop, 6e-6);
  EXPECT_DOUBLE_EQ(b1.step.settle_frac, 0.01);
  EXPECT_DOUBLE_EQ(b2.step.settle_frac, 0.05);
  EXPECT_DOUBLE_EQ(b1.step.v_step, 0.8 - 0.6);
  EXPECT_DOUBLE_EQ(b1.step.t_delay, 1e-7);
  EXPECT_EQ(b1.step.source, 1);  // Vstep is the second vsource
}

TEST(NetlistYieldProblem, CustomVariationDeck) {
  // Fully custom statistics (no built-in tech): one global vth0 variable +
  // an NMOS mismatch law -> noise_dim = 4*T + 1.
  const char* custom =
      "* custom stats\n"
      ".param w=2e-05 lo=1e-06 hi=1e-04\n"
      "Vdd vdd 0 DC 1.2\n"
      "Vb g 0 DC 0.6\n"
      "M1 out g 0 0 nm W={w} L=1e-06\n"
      "R1 out vdd 10k\n"
      ".model nm NMOS (VTO=0.3)\n"
      ".variation global DVT vth0 0.03 nmos\n"
      ".variation mismatch nmos AVTH=2e-09 ATOX=1e-09\n"
      ".spec power <= 1m\n"
      ".probe out out\n"
      ".probe supply Vdd\n";
  NetlistYieldProblem problem(spice::parse_deck_string(custom));
  EXPECT_EQ(problem.num_design_vars(), 1u);
  EXPECT_EQ(problem.noise_dim(), 4u * 1u + 1u);
  const auto& tech = problem.deck_topology().tech();
  ASSERT_EQ(tech.inter_die.size(), 1u);
  EXPECT_EQ(tech.inter_die[0].name, "DVT");
  EXPECT_EQ(tech.inter_die[0].sigma, 0.03);
  EXPECT_EQ(tech.mismatch_nmos.a_vth, 2e-9);
  EXPECT_EQ(tech.mismatch_pmos.a_vth, 0.0);

  // The problem evaluates end to end through a session.
  const std::vector<double> x = problem.nominal_x();
  stats::Rng rng(9);
  std::vector<double> xi(problem.noise_dim());
  for (double& v : xi) v = rng.normal();
  const mc::SampleResult r = problem.open(x)->evaluate(xi);
  (void)r;  // must not throw; pass/fail depends on the sizing
}

}  // namespace
}  // namespace moheco::circuits
