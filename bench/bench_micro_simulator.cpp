// Micro benchmarks (google-benchmark) for the substrate: one MC sample
// (DC + AC + extraction) on both example circuits, the DC solve alone, the
// dense LU factorization, the sparse assemble+refactor+solve hot path on
// generated ladders, and the OCBA allocation step.
#include <benchmark/benchmark.h>

#include "src/circuits/circuit_yield.hpp"
#include "src/linalg/lu.hpp"
#include "src/mc/ocba.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/mna.hpp"
#include "src/spice/netlist_gen.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/samplers.hpp"

namespace {

using namespace moheco;

const std::vector<double>& folded_x0() {
  static const std::vector<double> x = {200e-6, 120e-6, 160e-6, 160e-6,
                                        100e-6, 0.7e-6, 0.5e-6, 1.0e-6,
                                        35e-6,  4.5,    1.9};
  return x;
}

const std::vector<double>& telescopic_x0() {
  static const std::vector<double> x = {50e-6,  40e-6, 60e-6,   80e-6,
                                        40e-6,  100e-6, 0.2e-6, 0.2e-6,
                                        0.15e-6, 5.0e-5, 4.0,   1.1e-12,
                                        300.0};
  return x;
}

void BM_McSampleFoldedCascode(benchmark::State& state) {
  circuits::CircuitYieldProblem problem(circuits::make_folded_cascode());
  auto session = problem.open(folded_x0());
  const auto xi = stats::sample_standard_normal(
      stats::SamplingMethod::kLHS, 256, problem.noise_dim(), 11);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session->evaluate({xi.row(i % 256), xi.cols()}));
    ++i;
  }
}
BENCHMARK(BM_McSampleFoldedCascode);

void BM_McSampleTelescopic(benchmark::State& state) {
  circuits::CircuitYieldProblem problem(
      circuits::make_two_stage_telescopic());
  auto session = problem.open(telescopic_x0());
  const auto xi = stats::sample_standard_normal(
      stats::SamplingMethod::kLHS, 256, problem.noise_dim(), 12);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session->evaluate({xi.row(i % 256), xi.cols()}));
    ++i;
  }
}
BENCHMARK(BM_McSampleTelescopic);

void BM_DcSolveFoldedCascode(benchmark::State& state) {
  auto topo = circuits::make_folded_cascode();
  circuits::BuiltCircuit circuit = topo->build(folded_x0());
  spice::DcSolver solver(circuit.netlist);
  spice::DcOptions options;
  std::vector<double> warm;
  solver.solve(options, &warm);  // nominal solution for warm starts
  for (auto _ : state) {
    std::vector<double> x = warm;
    benchmark::DoNotOptimize(solver.solve(options, &x));
  }
}
BENCHMARK(BM_DcSolveFoldedCascode);

// Steady-state assemble + factor + solve on the RC ladder: the sparse path
// reuses its symbolic analysis, which is what the inner Monte-Carlo loop
// pays per sample.
void BM_LadderSolve(benchmark::State& state) {
  spice::LadderSpec spec;
  spec.sections = static_cast<int>(state.range(0));
  const spice::Netlist netlist = make_rc_ladder(spec);
  const spice::MnaLayout layout(netlist);
  spice::MnaSystem<double> sys;
  sys.reset(layout.size());
  std::vector<double> x;
  for (auto _ : state) {
    sys.begin_assembly();
    spice::Stamper<double> stamper(sys);
    stamp_linear_static(netlist, layout, stamper, /*gmin=*/1e-12,
                        /*source_scale=*/1.0, /*time=*/-1.0);
    sys.end_assembly();
    x = sys.rhs();
    if (!sys.factor()) {
      state.SkipWithError("factor failed");
      break;
    }
    sys.solve(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LadderSolve)->Arg(100)->Arg(500)->Arg(2000);

void BM_DenseLu(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(5);
  linalg::MatrixD a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    a(r, r) += static_cast<double>(n);
  }
  linalg::LuSolver<double> solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.factor(a));
  }
}
BENCHMARK(BM_DenseLu)->Arg(16)->Arg(32)->Arg(64);

void BM_OcbaAllocation(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(6);
  std::vector<double> means(s), vars(s);
  for (std::size_t i = 0; i < s; ++i) {
    means[i] = rng.uniform();
    vars[i] = 0.01 + 0.2 * rng.uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc::ocba_allocation(means, vars, 10000));
  }
}
BENCHMARK(BM_OcbaAllocation)->Arg(50)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
