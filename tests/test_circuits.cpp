#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/circuits/circuit_yield.hpp"
#include "src/circuits/evaluator.hpp"
#include "src/circuits/process.hpp"
#include "src/circuits/tech.hpp"
#include "src/circuits/topology.hpp"
#include "src/stats/samplers.hpp"

namespace moheco::circuits {
namespace {

// Hand-sized design points used across the circuit tests (chosen to be
// comfortably feasible; see tests below that assert this).
std::vector<double> folded_cascode_x0() {
  return {260e-6, 105e-6, 160e-6, 160e-6, 100e-6,
          0.7e-6, 0.5e-6, 1.0e-6, 38e-6,  4.6, 1.9};
}

std::vector<double> five_t_x0() {
  return {60e-6, 40e-6, 20e-6, 0.7e-6, 0.85};
}

std::vector<double> two_stage_x0() {
  return {50e-6, 40e-6, 60e-6, 80e-6, 40e-6, 100e-6,
          0.2e-6, 0.2e-6, 0.15e-6, 5.0e-5, 4.0, 1.1e-12, 300.0};
}

TEST(Tech, InterDieCountsMatchPaper) {
  EXPECT_EQ(tech035().inter_die.size(), 20u);
  EXPECT_EQ(tech90().inter_die.size(), 47u);
}

TEST(Tech, ProcessDimensionsMatchPaper) {
  // Example 1: 15 transistors -> 60 intra + 20 inter = 80 variables.
  ProcessModel p1(tech035(), 15);
  EXPECT_EQ(p1.dim(), 80);
  // Example 2: 19 transistors -> 76 intra + 47 inter = 123 variables.
  ProcessModel p2(tech90(), 19);
  EXPECT_EQ(p2.dim(), 123);
}

TEST(Tech, DeltasNominalAtZero) {
  ProcessModel p(tech035(), 15);
  const DeviceDeltas d = p.device_deltas({}, 0, false, 1e-5, 1e-6);
  EXPECT_EQ(d.dvth0, 0.0);
  EXPECT_EQ(d.tox_mult, 1.0);
  EXPECT_EQ(d.dl, 0.0);
}

TEST(Tech, MismatchShrinksWithArea) {
  ProcessModel p(tech035(), 15);
  std::vector<double> xi(80, 0.0);
  xi[0] = 1.0;  // M1 VTH0 mismatch, one sigma
  const DeviceDeltas small = p.device_deltas(xi, 0, false, 10e-6, 0.35e-6);
  const DeviceDeltas large = p.device_deltas(xi, 0, false, 160e-6, 1.4e-6);
  EXPECT_GT(small.dvth0, 0.0);
  EXPECT_GT(small.dvth0, 7.0 * large.dvth0);  // 8x linear, sqrt(64)=8
}

TEST(Tech, InterDieAffectsOnlyMatchingPolarity) {
  ProcessModel p(tech035(), 15);
  std::vector<double> xi(80, 0.0);
  // VTH0Rn is inter-die index 1 -> position 60 + 1.
  xi[61] = 2.0;
  const DeviceDeltas n_dev = p.device_deltas(xi, 3, false, 1e-5, 1e-6);
  const DeviceDeltas p_dev = p.device_deltas(xi, 3, true, 1e-5, 1e-6);
  EXPECT_GT(n_dev.dvth0, 0.0);
  EXPECT_EQ(p_dev.dvth0, 0.0);
}

TEST(Tech, ApplyDeltasFoldsDrawnOffsets) {
  spice::MosModel base = tech035().nmos;
  DeviceDeltas d;
  d.dl = 2e-8;
  const spice::MosModel shifted = apply_deltas(base, d);
  // l_eff = l - 2*ld; dl > 0 must increase l_eff, i.e. reduce ld by dl/2.
  EXPECT_NEAR(shifted.ld, base.ld - 1e-8, 1e-15);
}

TEST(Performance, ViolationZeroWhenPassing) {
  Performance perf;
  perf.valid = true;
  perf.a0_db = 80;
  perf.gbw = 60e6;
  perf.pm_deg = 75;
  perf.swing = 5.5;
  perf.power = 0.8e-3;
  perf.offset = 0.0;
  perf.sat_margin = 0.2;
  auto topo = make_folded_cascode();
  const auto& specs = topo->specs();
  EXPECT_TRUE(passes(perf, specs));
  EXPECT_EQ(violation(perf, specs), 0.0);
  perf.gbw = 30e6;  // 10 MHz short, scale 4 MHz -> violation 2.5
  EXPECT_FALSE(passes(perf, specs));
  EXPECT_NEAR(violation(perf, specs), 2.5, 1e-9);
}

TEST(Performance, InvalidFailsEverything) {
  Performance perf;  // default: invalid
  auto topo = make_folded_cascode();
  const auto& specs = topo->specs();
  EXPECT_FALSE(passes(perf, specs));
  EXPECT_GE(violation(perf, specs), 100.0);
}

TEST(FiveTOta, NominalPerformanceIsSane) {
  AmplifierEvaluator eval(make_five_transistor_ota());
  auto session = eval.session(five_t_x0());
  const Performance perf = session->nominal();
  ASSERT_TRUE(perf.valid);
  EXPECT_GT(perf.a0_db, 30.0);
  EXPECT_LT(perf.a0_db, 70.0);
  EXPECT_GT(perf.gbw, 1e6);
  EXPECT_LT(perf.gbw, 1e9);
  EXPECT_GT(perf.pm_deg, 45.0);
  EXPECT_GT(perf.swing, 3.0);
  EXPECT_LT(perf.power, 2e-3);
  EXPECT_GT(perf.sat_margin, 0.0);
}

TEST(FoldedCascode, NominalMeetsPaperSpecs) {
  auto topo = make_folded_cascode();
  AmplifierEvaluator eval(topo);
  auto session = eval.session(folded_cascode_x0());
  const Performance perf = session->nominal();
  ASSERT_TRUE(perf.valid);
  EXPECT_GT(perf.a0_db, 70.0);
  EXPECT_GT(perf.gbw, 40e6);
  EXPECT_GT(perf.pm_deg, 60.0);
  EXPECT_GT(perf.swing, 4.6);
  EXPECT_LT(perf.power, 1.07e-3);
  EXPECT_GT(perf.sat_margin, 0.0);
  EXPECT_TRUE(passes(perf, topo->specs()));
}

TEST(FoldedCascode, OffsetNearZeroAtNominal) {
  AmplifierEvaluator eval(make_folded_cascode());
  auto session = eval.session(folded_cascode_x0());
  // Fully differential and perfectly matched: offset ~ 0.
  EXPECT_LT(std::fabs(session->nominal().offset), 1e-6);
}

TEST(FoldedCascode, MoreBiasCurrentMoreGbwMorePower) {
  AmplifierEvaluator eval(make_folded_cascode());
  std::vector<double> x = folded_cascode_x0();
  const Performance base = eval.session(x)->nominal();
  x[8] *= 1.5;  // ibias up
  const Performance hot = eval.session(x)->nominal();
  ASSERT_TRUE(base.valid);
  ASSERT_TRUE(hot.valid);
  EXPECT_GT(hot.gbw, base.gbw);
  EXPECT_GT(hot.power, base.power);
}

TEST(FoldedCascode, ProcessSampleShiftsPerformance) {
  AmplifierEvaluator eval(make_folded_cascode());
  auto session = eval.session(folded_cascode_x0());
  const Performance nominal = session->nominal();
  const linalg::MatrixD xi = stats::sample_standard_normal(
      stats::SamplingMethod::kPMC, 4, static_cast<std::size_t>(eval.process().dim()), 99);
  int changed = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const Performance perf = session->evaluate({xi.row(i), xi.cols()});
    ASSERT_TRUE(perf.valid);
    if (std::fabs(perf.gbw - nominal.gbw) > 1e3) ++changed;
    // Mismatch must produce a nonzero but small offset.
    EXPECT_GT(std::fabs(perf.offset), 1e-9);
    EXPECT_LT(std::fabs(perf.offset), 0.05);
  }
  EXPECT_GE(changed, 3);
}

TEST(FoldedCascode, SampleEvaluationIsDeterministic) {
  AmplifierEvaluator eval(make_folded_cascode());
  auto s1 = eval.session(folded_cascode_x0());
  auto s2 = eval.session(folded_cascode_x0());
  const linalg::MatrixD xi = stats::sample_standard_normal(
      stats::SamplingMethod::kLHS, 3, static_cast<std::size_t>(eval.process().dim()), 7);
  // Evaluate in different orders; results must be bit-identical.
  const Performance a0 = s1->evaluate({xi.row(0), xi.cols()});
  const Performance a1 = s1->evaluate({xi.row(1), xi.cols()});
  const Performance b1 = s2->evaluate({xi.row(1), xi.cols()});
  const Performance b0 = s2->evaluate({xi.row(0), xi.cols()});
  EXPECT_EQ(a0.gbw, b0.gbw);
  EXPECT_EQ(a0.a0_db, b0.a0_db);
  EXPECT_EQ(a1.pm_deg, b1.pm_deg);
  EXPECT_EQ(a1.offset, b1.offset);
}

TEST(TwoStage, NominalMeetsPaperSpecs) {
  auto topo = make_two_stage_telescopic();
  AmplifierEvaluator eval(topo);
  auto session = eval.session(two_stage_x0());
  const Performance perf = session->nominal();
  ASSERT_TRUE(perf.valid);
  EXPECT_GT(perf.a0_db, 60.0);
  EXPECT_GT(perf.gbw, 300e6);
  EXPECT_GT(perf.pm_deg, 60.0);
  EXPECT_GT(perf.swing, 1.8);
  EXPECT_LT(perf.power, 10e-3);
  EXPECT_LT(perf.area, 1.8e-10);
  EXPECT_GT(perf.sat_margin, 0.0);
}

TEST(TwoStage, OffsetRespondsToMismatch) {
  AmplifierEvaluator eval(make_two_stage_telescopic());
  auto session = eval.session(two_stage_x0());
  EXPECT_LT(session->nominal().offset, 1e-6);
  const linalg::MatrixD xi = stats::sample_standard_normal(
      stats::SamplingMethod::kPMC, 8, static_cast<std::size_t>(eval.process().dim()), 3);
  double max_offset = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    const Performance perf = session->evaluate({xi.row(i), xi.cols()});
    ASSERT_TRUE(perf.valid);
    max_offset = std::max(max_offset, std::fabs(perf.offset));
  }
  EXPECT_GT(max_offset, 1e-6);
  EXPECT_LT(max_offset, 5e-3);
}

TEST(CircuitYield, AdapterScreensAndScores) {
  CircuitYieldProblem problem(make_five_transistor_ota());
  EXPECT_EQ(problem.num_design_vars(), 5u);
  EXPECT_EQ(problem.noise_dim(), 40u);  // 5*4 + 20
  auto session = problem.open(five_t_x0());
  const mc::SampleResult nominal = session->evaluate({});
  EXPECT_TRUE(nominal.pass);
  EXPECT_EQ(nominal.violation, 0.0);
  // A starved design must fail with positive violation.
  std::vector<double> bad = five_t_x0();
  bad[4] = 0.7;   // weak tail bias
  bad[0] = 5e-6;  // tiny input pair
  auto bad_session = problem.open(bad);
  const mc::SampleResult r = bad_session->evaluate({});
  EXPECT_FALSE(r.pass);
  EXPECT_GT(r.violation, 0.0);
}

}  // namespace
}  // namespace moheco::circuits
