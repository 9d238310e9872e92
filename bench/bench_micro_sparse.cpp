// Micro benchmark for the linear solvers on MNA systems: factor + solve on
// generated RC-ladder and RC-grid systems from n=12 to n=2026, dense LU
// (linalg::LuSolver) vs sparse LU (linalg::SparseLuSolver), with the sparse
// numbers split into the one-off first factorization (symbolic analysis +
// fully pivoted factor) and the refactor+solve hot path every Newton
// iteration / MC sample actually pays.  Each system is stamped once into a
// dense matrix; the sparse solver gets the same entries in CSC form.
//
// Doubles as a correctness gate: the two solvers must agree to 1e-10
// (relative) on every scenario, and at n >= 500 the sparse hot path must
// beat dense factor+solve by >= 5x; violations exit non-zero so CI fails.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_support.hpp"
#include "src/common/table.hpp"
#include "src/linalg/lu.hpp"
#include "src/linalg/sparse.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/mna.hpp"
#include "src/spice/netlist_gen.hpp"

namespace {

using namespace moheco;

struct Scenario {
  std::string name;
  spice::Netlist netlist;
  bool check_speedup = false;  ///< acceptance gate: sparse >= 5x dense
};

struct SolverResult {
  double ns_per_solve = 0.0;     ///< steady-state factor+solve
  double first_factor_ns = 0.0;  ///< includes symbolic analysis (sparse)
  std::vector<double> solution;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Times `factor_solve(&x)` (x starts as the rhs) until `min_seconds` pass;
/// the first call's time and solution are reported separately.
template <typename FactorSolve>
SolverResult time_solver(const std::vector<double>& rhs, double min_seconds,
                         FactorSolve&& factor_solve) {
  SolverResult result;
  result.solution = rhs;
  const auto first_start = std::chrono::steady_clock::now();
  factor_solve(&result.solution);
  result.first_factor_ns = seconds_since(first_start) * 1e9;

  std::vector<double> x;
  int iterations = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    x = rhs;
    factor_solve(&x);
    ++iterations;
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds && iterations < 200000);
  result.ns_per_solve = elapsed * 1e9 / iterations;
  return result;
}

/// The CSC form of `a`'s nonzero entries.
linalg::SparseMatrix<double> to_sparse(const linalg::MatrixD& a) {
  linalg::SparseBuilder builder(a.rows());
  std::vector<double> values;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) == 0.0) continue;
      builder.add(static_cast<int>(r), static_cast<int>(c));
      values.push_back(a(r, c));
    }
  }
  std::vector<std::uint32_t> slots;
  linalg::SparseMatrix<double> s = builder.finalize<double>(&slots);
  for (std::size_t i = 0; i < values.size(); ++i) s.value(slots[i]) = values[i];
  return s;
}

[[noreturn]] void singular(const std::string& scenario, const char* solver) {
  std::fprintf(stderr, "%s factor failed on %s\n", solver, scenario.c_str());
  std::exit(1);
}

std::string format_ns(double ns) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3g", ns);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = bench::bench_prologue(
      argc, argv, "Micro: dense vs sparse LU factor+solve on MNA systems");
  const double min_seconds = options.scale == BenchScale::kSmoke ? 0.02 : 0.2;

  std::vector<int> ladder_sizes = {10, 50, 100, 200, 500};
  if (options.scale != BenchScale::kSmoke) {
    ladder_sizes.push_back(1000);
    ladder_sizes.push_back(2000);
  }
  std::vector<Scenario> scenarios;
  for (int n : ladder_sizes) {
    spice::LadderSpec spec;
    spec.sections = n;
    scenarios.push_back({"ladder-" + std::to_string(n), make_rc_ladder(spec),
                         /*check_speedup=*/n >= 500});
  }
  {
    spice::GridSpec spec;
    const int side = options.scale == BenchScale::kSmoke ? 16 : 45;
    spec.rows = side;
    spec.cols = side;
    scenarios.push_back({"grid-" + std::to_string(side) + "x" +
                             std::to_string(side),
                         make_rc_grid(spec), /*check_speedup=*/false});
  }

  Table table({"scenario", "n", "dense ns", "sparse ns", "sparse 1st ns",
               "speedup", "max |dx|"});
  bool ok = true;
  std::string json_rows;
  for (const Scenario& s : scenarios) {
    const spice::MnaLayout layout(s.netlist);
    linalg::MatrixD a(layout.size(), layout.size());
    std::vector<double> rhs(layout.size(), 0.0);
    spice::Stamper<double> stamper(a, rhs);
    stamp_linear_static(s.netlist, layout, stamper, /*gmin=*/1e-12,
                        /*source_scale=*/1.0, /*time=*/-1.0);
    const linalg::SparseMatrix<double> a_sparse = to_sparse(a);

    linalg::LuSolver<double> lu;
    const SolverResult dense =
        time_solver(rhs, min_seconds, [&](std::vector<double>* x) {
          if (!lu.factor(a)) singular(s.name, "dense");
          lu.solve(*x);
        });
    linalg::SparseLuSolver<double> sparse_lu;
    const SolverResult sparse =
        time_solver(rhs, min_seconds, [&](std::vector<double>* x) {
          if (!sparse_lu.factor_with_reuse(a_sparse)) {
            singular(s.name, "sparse");
          }
          sparse_lu.solve(*x);
        });

    double max_delta = 0.0;
    for (std::size_t i = 0; i < dense.solution.size(); ++i) {
      const double scale = std::max(1.0, std::fabs(dense.solution[i]));
      max_delta = std::max(
          max_delta, std::fabs(dense.solution[i] - sparse.solution[i]) / scale);
    }
    const double speedup = dense.ns_per_solve / sparse.ns_per_solve;
    if (max_delta > 1e-10) {
      std::fprintf(stderr, "FAIL %s: solvers disagree (max delta %.3g)\n",
                   s.name.c_str(), max_delta);
      ok = false;
    }
    if (s.check_speedup && speedup < 5.0) {
      std::fprintf(stderr, "FAIL %s: sparse speedup %.2fx < 5x\n",
                   s.name.c_str(), speedup);
      ok = false;
    }
    char speedup_text[32];
    std::snprintf(speedup_text, sizeof(speedup_text), "%.1fx", speedup);
    table.add_row({s.name, std::to_string(layout.size()),
                   format_ns(dense.ns_per_solve),
                   format_ns(sparse.ns_per_solve),
                   format_ns(sparse.first_factor_ns), speedup_text,
                   format_ns(max_delta)});
    char row[512];
    std::snprintf(row, sizeof(row),
                  "%s{\"name\":\"%s\",\"n\":%zu,\"dense_ns\":%.1f,"
                  "\"sparse_ns\":%.1f,\"sparse_first_factor_ns\":%.1f,"
                  "\"speedup\":%.2f,\"max_rel_delta\":%.3g}",
                  json_rows.empty() ? "" : ",", s.name.c_str(), layout.size(),
                  dense.ns_per_solve, sparse.ns_per_solve,
                  sparse.first_factor_ns, speedup, max_delta);
    json_rows += row;
  }
  table.print(std::cout, "dense vs sparse LU factor+solve (steady state)");

  if (!options.json.empty()) {
    std::ofstream out(options.json);
    out << "{\"bench_micro_sparse\":{\"scenarios\":[" << json_rows << "]}}\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", options.json.c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}
