// Abstract yield-optimization problem.
//
// A problem is a design space (bounded real vector x), a noise space (the
// process variations, presented to samplers as standard-normal vectors xi),
// and a pass/fail evaluation of one (x, xi) pair.  Yield(x) is the
// probability of "pass" over xi; the optimizers maximize it subject to the
// feasibility of the nominal point (acceptance-sampling screen).
//
// Evaluations happen through Sessions bound to one design point; sessions
// carry whatever per-candidate state makes repeated sampling cheap (for the
// circuit problems: the sized netlist, the nominal operating point used as
// a Newton warm start, and the nominal GBW used to seed the crossing
// search).  Distinct sessions must be usable concurrently.
//
// Session-cache contract (relied on by mc::EvalScheduler):
//   - open() must be thread-safe: the scheduler opens sessions for the same
//     problem concurrently from several workers.
//   - evaluate(xi) must be a pure function of (x, xi): internal state may
//     only affect cost (warm starts, search seeds), never results.  The
//     scheduler is then free to evict a session mid-stream and reopen it
//     later -- or to split one candidate's samples across many sessions --
//     without changing the yield tally.
//   - Sessions may be destroyed at any time between evaluations (LRU
//     eviction); construction must be self-contained and repeatable.  An
//     evicted session is reopened cold: open() is the only way the
//     scheduler constructs a session.
#pragma once

#include <memory>
#include <span>
#include <vector>

namespace moheco::mc {

struct SampleResult {
  bool pass = false;
  /// Sum of normalized spec violations (0 when pass); used by Deb's
  /// constraint-handling rules for infeasible candidates.
  double violation = 0.0;
};

class YieldProblem {
 public:
  virtual ~YieldProblem() = default;

  virtual std::size_t num_design_vars() const = 0;
  virtual double lower_bound(std::size_t i) const = 0;
  virtual double upper_bound(std::size_t i) const = 0;
  /// Dimension of the standard-normal noise vector xi.
  virtual std::size_t noise_dim() const = 0;

  class Session {
   public:
    virtual ~Session() = default;
    /// Evaluates one noise sample; an empty span means the nominal point.
    /// Each call counts as one "simulation" in the budget accounting.
    virtual SampleResult evaluate(std::span<const double> xi) = 0;
    /// Evaluates `lanes` noise samples stored contiguously lane-major
    /// (sample l occupies [l * noise_dim(), (l + 1) * noise_dim())) into
    /// `out`, one per-lane evaluate() call in lane order.  Nothing in the
    /// library calls this pair or preferred_batch(): the EvalScheduler
    /// evaluates one sample per evaluate() call.  Both stay virtual only
    /// because perfbench/'s TimedSession still overrides them.
    virtual void evaluate_batch(std::span<const double> xis,
                                std::size_t lanes,
                                std::span<SampleResult> out) {
      const std::size_t dim = lanes == 0 ? 0 : xis.size() / lanes;
      for (std::size_t l = 0; l < lanes; ++l) {
        out[l] = evaluate(xis.subspan(l * dim, dim));
      }
    }
    /// Preferred evaluate_batch() lane count (see above; unused).
    virtual std::size_t preferred_batch() const { return 1; }
    /// Nothing in the library calls this or YieldProblem::open_warm(): an
    /// evicted session is reopened cold through open().  Both stay virtual
    /// only because perfbench/'s TimedSession and TimedProblem still
    /// override them.
    virtual std::vector<double> warm_start_blob() const { return {}; }
  };

  /// Opens an evaluation session at design x (x is copied).
  virtual std::unique_ptr<Session> open(std::span<const double> x) const = 0;

  /// Uncalled; kept only for perfbench/ (see Session::warm_start_blob()).
  /// The default ignores `blob` and opens cold.
  virtual std::unique_ptr<Session> open_warm(
      std::span<const double> x, std::span<const double> blob) const {
    (void)blob;
    return open(x);
  }

  /// Convenience one-shot evaluation.
  SampleResult evaluate(std::span<const double> x,
                        std::span<const double> xi) const {
    return open(x)->evaluate(xi);
  }
};

}  // namespace moheco::mc
