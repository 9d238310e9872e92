// Modified Nodal Analysis layout: maps circuit unknowns (node voltages and
// branch currents of voltage-defined elements) to matrix indices.
//
// The layout is computed once per netlist and shared by the DC, AC and
// transient solvers, so a DC solution vector can warm-start subsequent DC
// solves and feed the AC linearization directly.
//
// MnaSystem adds the assembled-system storage behind a backend switch: a
// dense matrix + dense LU for tiny systems, or a CSC sparse matrix + sparse
// LU with cached symbolic analysis for everything else.  The first assembly
// records the stamp sequence and resolves every stamp to a stable value
// slot; later assemblies replay the identical sequence against those slots,
// so the sparse pattern -- and the symbolic factorization derived from it --
// is fixed at netlist-build time and survives Newton iterations, transient
// timesteps and Monte-Carlo model-card perturbations alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/linalg/lu.hpp"
#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse.hpp"
#include "src/spice/netlist.hpp"

namespace moheco::spice {

class MnaLayout {
 public:
  explicit MnaLayout(const Netlist& netlist);

  /// Total unknown count: nodes + branch currents.
  std::size_t size() const { return size_; }
  std::size_t num_nodes() const { return num_nodes_; }

  /// Matrix index of node `n`'s voltage; -1 for ground.
  int node_index(NodeId n) const { return n - 1; }

  /// Matrix index of the branch current of vsource/vcvs/inductor `i`.
  std::size_t vsource_branch(std::size_t i) const { return vsource_branch_[i]; }
  std::size_t vcvs_branch(std::size_t i) const { return vcvs_branch_[i]; }
  std::size_t inductor_branch(std::size_t i) const { return inductor_branch_[i]; }

 private:
  std::size_t num_nodes_ = 0;
  std::size_t size_ = 0;
  std::vector<std::size_t> vsource_branch_;
  std::vector<std::size_t> vcvs_branch_;
  std::vector<std::size_t> inductor_branch_;
};

/// Linear-solve backend for an assembled MNA system.  kAuto picks dense for
/// tiny systems (the amplifier testbenches, where dense LU wins on constant
/// factors) and sparse above kSparseAutoThreshold unknowns.
enum class SolverBackend { kDense, kSparse, kAuto };

const char* to_string(SolverBackend backend);

/// kAuto switches to the sparse path at this many unknowns.
inline constexpr std::size_t kSparseAutoThreshold = 64;

/// Resolves kAuto against the system size; kDense/kSparse pass through.
SolverBackend resolve_backend(SolverBackend requested, std::size_t n);

/// Assembled MNA system (matrix + rhs) behind a SolverBackend.
///
/// Assembly protocol, repeated identically every time the system is
/// (re)stamped:
///
///   sys.begin_assembly();
///   Stamper<Scalar> stamper(sys);
///   ... stamp devices (the sequence of add() calls must not change) ...
///   sys.end_assembly();
///   x = sys.rhs();
///   if (!sys.factor()) ...singular...;
///   sys.solve(x);
///
/// The first begin/end pair captures the pattern; from then on stamps are
/// slot replays and, on the sparse backend, factor() is a numeric-only
/// refactorization against the cached symbolic analysis.
template <typename Scalar>
class MnaSystem {
 public:
  MnaSystem() = default;

  /// Sizes the system and resolves the backend.  Discards any captured
  /// pattern; call once per (netlist, analysis) pairing.
  void reset(std::size_t n, SolverBackend backend);

  std::size_t size() const { return n_; }
  bool is_sparse() const { return sparse_; }
  SolverBackend backend() const {
    return sparse_ ? SolverBackend::kSparse : SolverBackend::kDense;
  }

  void begin_assembly();
  /// Adds `v` at (r, c); r and c must be valid indices (the Stamper elides
  /// ground).  During the first assembly this records the pattern; later
  /// assemblies replay the recorded slot sequence.  The replay path is the
  /// innermost loop of every Monte-Carlo sample, so it is inlined here;
  /// pattern capture and the dense backend take the cold out-of-line path.
  void add(int r, int c, Scalar v) {
    if (sparse_ && pattern_ready_) [[likely]] {
      if (cursor_ >= slots_.size()) [[unlikely]] replay_overflow();
      sparse_a_.value(slots_[cursor_++]) += v;
      return;
    }
    add_cold(r, c, v);
  }
  void rhs_add(int r, Scalar v) { rhs_[static_cast<std::size_t>(r)] += v; }
  void end_assembly();

  std::vector<Scalar>& rhs() { return rhs_; }

  /// Factors the assembled matrix; false when numerically singular.  On
  /// the sparse backend a pivot breakdown first retries the assembly
  /// through dense LU (the sparse_to_dense degradation rung) before
  /// reporting failure; solve() then follows the fallback factorization.
  bool factor();
  /// Solves in place against the last successful factor().
  void solve(std::vector<Scalar>& b) const;

  /// Sparse-backend diagnostics (0 on the dense backend).
  long long full_factorizations() const {
    return sparse_ ? sparse_lu_.full_factorizations() : 0;
  }
  long long refactorizations() const {
    return sparse_ ? sparse_lu_.refactorizations() : 0;
  }
  std::size_t pattern_nnz() const { return sparse_ ? sparse_a_.nnz() : n_ * n_; }

 private:
  /// Pattern capture / dense-backend leg of add().
  void add_cold(int r, int c, Scalar v);
  [[noreturn]] void replay_overflow() const;

  std::size_t n_ = 0;
  bool sparse_ = false;
  bool pattern_ready_ = false;
  /// Last factor() on the sparse backend went through the dense-LU
  /// degradation rung (sparse pivot breakdown); solve() follows it.
  bool dense_fallback_ = false;
  std::vector<Scalar> rhs_;

  // Dense backend.
  linalg::Matrix<Scalar> dense_a_;
  linalg::LuSolver<Scalar> dense_lu_;

  // Sparse backend: capture state (first assembly only), then slot replay.
  linalg::SparseBuilder builder_;
  std::vector<Scalar> capture_values_;
  std::vector<std::uint32_t> slots_;
  std::size_t cursor_ = 0;
  linalg::SparseMatrix<Scalar> sparse_a_;
  linalg::SparseLuSolver<Scalar> sparse_lu_;
};

extern template class MnaSystem<double>;
extern template class MnaSystem<std::complex<double>>;

/// Helper for stamping with ground (index -1) elision.  Stamps either into
/// a caller-owned dense matrix + rhs (pattern discovery, tests) or into an
/// MnaSystem, which dispatches to its backend.
template <typename Scalar>
class Stamper {
 public:
  Stamper(linalg::Matrix<Scalar>& a, std::vector<Scalar>& rhs)
      : a_(&a), dense_rhs_(&rhs) {}
  explicit Stamper(MnaSystem<Scalar>& sys) : sys_(&sys) {}

  /// Adds `g` between matrix rows/cols (r, c); ignores ground (-1).
  void add(int r, int c, Scalar g) {
    if (r < 0 || c < 0) return;
    if (sys_ != nullptr) {
      sys_->add(r, c, g);
    } else {
      (*a_)(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += g;
    }
  }
  /// Adds a two-terminal admittance `g` between nodes with matrix indices
  /// (i, j): the classic 4-entry stamp.
  void conductance(int i, int j, Scalar g) {
    add(i, i, g);
    add(j, j, g);
    add(i, j, -g);
    add(j, i, -g);
  }
  /// Transconductance gm from control pair (cp, cn) injecting current into
  /// (np -> out of nn).
  void transconductance(int np, int nn, int cp, int cn, Scalar gm) {
    add(np, cp, gm);
    add(np, cn, -gm);
    add(nn, cp, -gm);
    add(nn, cn, gm);
  }
  void rhs_add(int r, Scalar value) {
    if (r < 0) return;
    if (sys_ != nullptr) {
      sys_->rhs_add(r, value);
    } else {
      (*dense_rhs_)[static_cast<std::size_t>(r)] += value;
    }
  }

 private:
  linalg::Matrix<Scalar>* a_ = nullptr;
  std::vector<Scalar>* dense_rhs_ = nullptr;
  MnaSystem<Scalar>* sys_ = nullptr;
};

}  // namespace moheco::spice
