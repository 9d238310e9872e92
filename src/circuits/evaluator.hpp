// Amplifier performance evaluator: the "circuit performance evaluator" role
// HSPICE plays in the paper.
//
// Evaluation is organized in sessions: a Session is bound to one design
// point x, builds the sized netlist once, solves the nominal operating
// point, and then evaluates process samples by perturbing the device model
// cards in place (topology and MNA layout never change), warm-starting each
// DC solve from the nominal solution.  Sessions are independent, so the
// Monte-Carlo driver evaluates them concurrently from its worker threads.
//
// Sessions satisfy the mc::YieldProblem session-cache contract: all warm
// starts (DC solution, GBW crossing seed) come from the *nominal* point
// computed at construction, never from previously evaluated samples, so a
// sample's result is a pure function of (x, xi) and the mc::EvalScheduler
// may cache, evict, and reopen sessions freely.  Every session cache miss
// re-runs the nominal measurement (one DC+AC solve, plus the step-bench
// transient when enabled) in the constructor.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/circuits/performance.hpp"
#include "src/circuits/process.hpp"
#include "src/circuits/topology.hpp"
#include "src/spice/ac_solver.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/tran_solver.hpp"

namespace moheco::circuits {

/// Core evaluation configuration: the one knob set shared by the CLI, the
/// daemon, the benches and the problem layers.  Entry points build a single
/// EvalConfig from their flags and thread it unchanged through
/// EvalOptions / MohecoOptions to every evaluation site, replacing the
/// loose per-flag parameter scatter.
struct EvalConfig {
  /// Also build the step-buffer testbench and run a transient per
  /// evaluation, filling Performance::slew_rate / settling_time.  Off by
  /// default: a transient costs ~100x a DC+AC evaluation, so yield flows
  /// opt in explicitly.
  bool transient = false;
  /// Ignored: kept only because perfbench/ passes it to the solver
  /// constructors.  Sparse LU is the one runtime solve path.
  spice::SolverBackend backend = spice::SolverBackend::kSparse;
};

/// Evaluation controls shared by every Session of one evaluator: the common
/// EvalConfig plus the solver sub-options only the evaluator consumes.
struct EvalOptions : EvalConfig {
  /// Transient solver controls; t_stop is overridden per topology by its
  /// StepStimulus horizon.
  spice::TranOptions tran;
};

class AmplifierEvaluator {
 public:
  explicit AmplifierEvaluator(std::shared_ptr<const Topology> topology,
                              EvalOptions options = {});

  const Topology& topology() const { return *topology_; }
  const ProcessModel& process() const { return process_; }
  const EvalOptions& options() const { return options_; }

  class Session {
   public:
    Session(const AmplifierEvaluator& parent, std::span<const double> x);

    /// Evaluates one process sample; pass an empty span for the nominal
    /// point.  `xi` must otherwise have process().dim() entries.
    Performance evaluate(std::span<const double> xi);

    /// The nominal-point performance (computed on construction).
    const Performance& nominal() const { return nominal_perf_; }

   private:
    Performance measure(bool is_nominal);
    Performance measure_small_signal(bool is_nominal);
    /// The AC leg of measure_small_signal: A0 / GBW / phase margin at
    /// operating point `op`.
    void measure_ac(bool is_nominal, const spice::OperatingPoint& op,
                    Performance* perf);
    void measure_transient(bool is_nominal, Performance* perf);
    void apply_process(std::span<const double> xi);

    const AmplifierEvaluator* parent_;
    BuiltCircuit circuit_;
    std::vector<spice::MosModel> base_cards_;
    std::unique_ptr<spice::DcSolver> dc_;
    /// One AC solver for the whole session: prepare(op) per sample keeps
    /// the assembled-system pattern and its symbolic factorization warm.
    std::unique_ptr<spice::AcSolver> ac_;
    std::vector<double> nominal_solution_;
    bool have_nominal_solution_ = false;
    Performance nominal_perf_;
    double last_crossing_ = 0.0;  ///< GBW of previous sample (search seed)

    /// Step-buffer twin of circuit_ (same transistor order, its own MNA
    /// layout), present when options().transient is set.  Process samples
    /// perturb both netlists' model cards in place.
    std::unique_ptr<BuiltCircuit> step_circuit_;
    std::unique_ptr<spice::DcSolver> step_dc_;
    std::unique_ptr<spice::TranSolver> tran_;
    std::vector<double> step_nominal_solution_;
    bool have_step_nominal_ = false;
  };

  std::unique_ptr<Session> session(std::span<const double> x) const;

  /// One-shot convenience (creates a throwaway session).
  Performance evaluate(std::span<const double> x,
                       std::span<const double> xi) const;

 private:
  std::shared_ptr<const Topology> topology_;
  ProcessModel process_;
  EvalOptions options_;
};

}  // namespace moheco::circuits
