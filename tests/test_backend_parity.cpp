// Property tests: the sparse solvers -- the one runtime linear-solve path --
// must agree to tight tolerance with a dense-LU oracle: the same MNA system
// stamped into a dense matrix through the public stamping helpers and
// solved with linalg::LuSolver.  Covers randomized conductance-stamped
// networks (real and complex AC), the generated scaling netlists, and the
// three amplifier topologies at their nominal DC solution.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <utility>
#include <vector>

#include "src/circuits/topology.hpp"
#include "src/linalg/lu.hpp"
#include "src/linalg/matrix.hpp"
#include "src/spice/ac_solver.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/mna.hpp"
#include "src/spice/netlist.hpp"
#include "src/spice/netlist_gen.hpp"
#include "src/stats/rng.hpp"

namespace moheco::spice {
namespace {

using Complex = std::complex<double>;
/// Random connected resistor network with current-source drives: a chain
/// guarantees connectivity, extra random edges give the pattern genuine
/// off-band structure.
Netlist random_conductance_network(int nodes, int extra_edges,
                                   std::uint64_t seed) {
  stats::Rng rng(seed);
  Netlist netlist;
  std::vector<NodeId> ids(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    ids[static_cast<std::size_t>(i)] = netlist.node("n" + std::to_string(i));
  }
  auto rand_node = [&]() {
    return ids[static_cast<std::size_t>(rng.uniform() * nodes) % nodes];
  };
  netlist.add_resistor("rg0", ids[0], 0, 1e3 * (0.5 + rng.uniform()));
  for (int i = 1; i < nodes; ++i) {
    netlist.add_resistor("rc" + std::to_string(i),
                         ids[static_cast<std::size_t>(i - 1)],
                         ids[static_cast<std::size_t>(i)],
                         1e3 * (0.5 + rng.uniform()));
  }
  for (int e = 0; e < extra_edges; ++e) {
    NodeId a = rand_node();
    NodeId b = rand_node();
    if (a == b) b = 0;
    netlist.add_resistor("re" + std::to_string(e), a, b,
                         1e3 * (0.5 + rng.uniform()));
    // A capacitor on a subset of the extra edges exercises the complex
    // (AC) path with off-diagonal reactive stamps.
    if (e % 3 == 0) {
      netlist.add_capacitor("ce" + std::to_string(e), a, b,
                            1e-12 * (0.5 + rng.uniform()));
    }
  }
  for (int s = 0; s < std::max(1, nodes / 8); ++s) {
    netlist.add_isource("i" + std::to_string(s), rand_node(), 0,
                        1e-3 * (rng.uniform() - 0.5), /*ac_mag=*/1e-3);
  }
  return netlist;
}

/// Dense-LU oracle for the DC system: stamps the linear devices and the
/// MOSFETs linearized at `x` the way DcSolver's Newton loop does, and
/// solves with dense LU.  On a linear network that is the DC solution; on
/// an amplifier it is the Newton iterate from `x`.
std::vector<double> dense_dc_oracle(const Netlist& netlist,
                                    const std::vector<double>& x,
                                    double gmin) {
  const MnaLayout layout(netlist);
  linalg::Matrix<double> a(layout.size(), layout.size());
  std::vector<double> rhs(layout.size(), 0.0);
  Stamper<double> stamper(a, rhs);
  stamp_linear_dc(netlist, layout, stamper, gmin, /*source_scale=*/1.0);
  stamp_mosfets_large_signal(netlist, layout, stamper, x);
  linalg::LuSolver<double> lu;
  EXPECT_TRUE(lu.solve(a, rhs));
  return rhs;
}

/// Dense-LU oracle for the AC system at `freq`, linearized at `op`.
std::vector<Complex> dense_ac_oracle(const Netlist& netlist,
                                     const OperatingPoint& op, double freq) {
  const MnaLayout layout(netlist);
  linalg::Matrix<Complex> a(layout.size(), layout.size());
  std::vector<Complex> rhs(layout.size());
  Stamper<Complex> stamper(a, rhs);
  stamp_small_signal(netlist, layout, stamper, op.mosfets, 2.0 * M_PI * freq);
  linalg::LuSolver<Complex> lu;
  EXPECT_TRUE(lu.solve(a, rhs));
  return rhs;
}

/// Node voltage of node `n` in an MNA solution vector (0 for ground).
template <typename Scalar>
Scalar node_voltage(const std::vector<Scalar>& x, NodeId n) {
  return n == 0 ? Scalar{} : x[static_cast<std::size_t>(n - 1)];
}

class ConductanceParityTest : public ::testing::TestWithParam<int> {};

TEST_P(ConductanceParityTest, DcSparseMatchesDenseLu) {
  const int nodes = GetParam();
  const Netlist netlist = random_conductance_network(
      nodes, nodes / 2, 321 + static_cast<std::uint64_t>(nodes));
  DcSolver sparse(netlist);
  ASSERT_EQ(sparse.solve(DcOptions{}), SolveStatus::kOk);
  const auto& xs = sparse.op().solution;
  const std::vector<double> xd = dense_dc_oracle(
      netlist, std::vector<double>(xs.size(), 0.0), DcOptions{}.gmin);
  ASSERT_EQ(xd.size(), xs.size());
  for (std::size_t i = 0; i < xd.size(); ++i) {
    EXPECT_NEAR(xd[i], xs[i], 1e-10 * std::max(1.0, std::fabs(xd[i])));
  }
}

TEST_P(ConductanceParityTest, AcSparseMatchesDenseLu) {
  const int nodes = GetParam();
  const Netlist netlist = random_conductance_network(
      nodes, nodes / 2, 654 + static_cast<std::uint64_t>(nodes));
  DcSolver dc(netlist);
  ASSERT_EQ(dc.solve(DcOptions{}), SolveStatus::kOk);
  AcSolver sparse(netlist, dc.op());
  for (double freq : {1e3, 1e6, 1e9}) {
    ASSERT_EQ(sparse.solve(freq), SolveStatus::kOk);
    const std::vector<Complex> xd = dense_ac_oracle(netlist, dc.op(), freq);
    for (int n = 1; n <= netlist.num_nodes(); ++n) {
      const Complex vd = node_voltage(xd, n);
      const Complex vs = sparse.voltage(n);
      EXPECT_NEAR(std::abs(vd - vs), 0.0, 1e-10 * std::max(1.0, std::abs(vd)))
          << "node " << n << " at " << freq << " Hz";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConductanceParityTest,
                         ::testing::Values(5, 17, 40, 90, 200));

TEST(BackendParity, RcLadderMatchesAnalyticDc) {
  LadderSpec spec;
  spec.sections = 300;
  const Netlist netlist = make_rc_ladder(spec);
  DcSolver sparse(netlist);
  ASSERT_EQ(sparse.solve(DcOptions{}), SolveStatus::kOk);
  const std::vector<double> dense = dense_dc_oracle(
      netlist, std::vector<double>(sparse.op().solution.size(), 0.0),
      DcOptions{}.gmin);
  const std::pair<const char*, const std::vector<double>*> paths[] = {
      {"sparse", &sparse.op().solution}, {"dense", &dense}};
  for (const auto& [path, x] : paths) {
    // gmin shunts perturb the divider at the ~1e-6 level; compare there.
    for (int k : {1, 50, 150, 300}) {
      const NodeId n = k + 1;  // node "nk": "in" is id 1, "n1" is id 2, ...
      EXPECT_NEAR(node_voltage(*x, n), rc_ladder_dc_voltage(spec, k), 1e-4)
          << path << " section " << k;
    }
  }
}

TEST(BackendParity, RcGridSparseMatchesDenseLuDcAndAc) {
  GridSpec spec;
  spec.rows = 12;
  spec.cols = 12;
  const Netlist netlist = make_rc_grid(spec);
  DcSolver sparse(netlist);
  ASSERT_EQ(sparse.solve(DcOptions{}), SolveStatus::kOk);
  const std::vector<double> dense = dense_dc_oracle(
      netlist, std::vector<double>(sparse.op().solution.size(), 0.0),
      DcOptions{}.gmin);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR(dense[i], sparse.op().solution[i], 1e-10);
  }
  AcSolver ac_sparse(netlist, sparse.op());
  for (double freq : {1e4, 1e7, 1e10}) {
    ASSERT_EQ(ac_sparse.solve(freq), SolveStatus::kOk);
    const std::vector<Complex> ac_dense =
        dense_ac_oracle(netlist, sparse.op(), freq);
    for (int n = 1; n <= netlist.num_nodes(); ++n) {
      EXPECT_NEAR(std::abs(node_voltage(ac_dense, n) - ac_sparse.voltage(n)),
                  0.0, 1e-10);
    }
  }
}

// --- amplifier topologies: nominal DC and AC against the dense oracle ----

struct TopologyCase {
  const char* name;
  std::shared_ptr<const circuits::Topology> (*make)();
  std::vector<double> x0;
};

std::vector<TopologyCase> amplifier_cases() {
  return {
      {"five_t_ota", circuits::make_five_transistor_ota,
       {60e-6, 40e-6, 20e-6, 0.7e-6, 0.85}},
      {"folded_cascode", circuits::make_folded_cascode,
       {260e-6, 105e-6, 160e-6, 160e-6, 100e-6, 0.7e-6, 0.5e-6, 1.0e-6,
        38e-6, 4.6, 1.9}},
      {"two_stage_telescopic", circuits::make_two_stage_telescopic,
       {50e-6, 40e-6, 60e-6, 80e-6, 40e-6, 100e-6, 0.2e-6, 0.2e-6, 0.15e-6,
        5.0e-5, 4.0, 1.1e-12, 300.0}},
  };
}

TEST(BackendParity, AmplifierDenseNewtonStepReproducesSparseDc) {
  for (const TopologyCase& tc : amplifier_cases()) {
    const circuits::BuiltCircuit circuit = tc.make()->build(tc.x0);
    // Tight Newton tolerances so the sparse solve lands on the root well
    // below the 1e-10 comparison threshold: the dense Newton iterate from
    // a root is the root itself.
    DcOptions options;
    options.v_tol = 1e-9;
    options.rel_tol = 1e-9;
    options.i_tol = 1e-12;
    DcSolver sparse(circuit.netlist);
    ASSERT_EQ(sparse.solve(options), SolveStatus::kOk) << tc.name;
    const auto& xs = sparse.op().solution;
    const std::vector<double> xd =
        dense_dc_oracle(circuit.netlist, xs, options.gmin);
    ASSERT_EQ(xd.size(), xs.size()) << tc.name;
    for (std::size_t i = 0; i < xd.size(); ++i) {
      EXPECT_NEAR(xd[i], xs[i], 1e-10 * std::max(1.0, std::fabs(xd[i])))
          << tc.name << " unknown " << i;
    }
  }
}

TEST(BackendParity, AmplifierAcTransferMatchesDenseLu) {
  const TopologyCase tc = amplifier_cases()[1];  // folded cascode
  const circuits::BuiltCircuit circuit = tc.make()->build(tc.x0);
  DcSolver dc(circuit.netlist);
  ASSERT_EQ(dc.solve(DcOptions{}), SolveStatus::kOk);
  AcSolver sparse(circuit.netlist, dc.op());
  for (double freq : {10.0, 1e4, 1e7, 1e9}) {
    ASSERT_EQ(sparse.solve(freq), SolveStatus::kOk);
    const std::vector<Complex> xd =
        dense_ac_oracle(circuit.netlist, dc.op(), freq);
    const Complex hd =
        node_voltage(xd, circuit.outp) - node_voltage(xd, circuit.outn);
    const Complex hs = sparse.differential(circuit.outp, circuit.outn);
    EXPECT_NEAR(std::abs(hd - hs), 0.0, 1e-10 * std::max(1.0, std::abs(hd)))
        << "freq " << freq;
  }
}

}  // namespace
}  // namespace moheco::spice
