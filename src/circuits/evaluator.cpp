#include "src/circuits/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "src/circuits/step_metrics.hpp"
#include "src/circuits/testbench.hpp"
#include "src/common/error.hpp"
#include "src/common/failure_ladder.hpp"

namespace moheco::circuits {
namespace {

constexpr double kMaxFrequency = 1e14;  // Hz; beyond this "no crossing"

}  // namespace

AmplifierEvaluator::AmplifierEvaluator(std::shared_ptr<const Topology> topology,
                                       EvalOptions options)
    : topology_(std::move(topology)),
      process_(topology_->tech(), topology_->num_transistors()),
      options_(options) {}

std::unique_ptr<AmplifierEvaluator::Session> AmplifierEvaluator::session(
    std::span<const double> x) const {
  return std::make_unique<Session>(*this, x);
}

Performance AmplifierEvaluator::evaluate(std::span<const double> x,
                                         std::span<const double> xi) const {
  Session s(*this, x);
  return xi.empty() ? s.nominal() : s.evaluate(xi);
}

AmplifierEvaluator::Session::Session(const AmplifierEvaluator& parent,
                                     std::span<const double> x)
    : parent_(&parent),
      circuit_(parent.topology().build(x)) {
  require(static_cast<int>(circuit_.netlist.mosfets().size()) ==
              parent.topology().num_transistors(),
          "Session: topology transistor count mismatch");
  base_cards_.reserve(circuit_.netlist.mosfets().size());
  for (const auto& m : circuit_.netlist.mosfets()) {
    base_cards_.push_back(m.model);
  }
  // Perturbing model cards never changes the MNA pattern, so one symbolic
  // analysis per solver serves every process sample the Session evaluates.
  dc_ = std::make_unique<spice::DcSolver>(circuit_.netlist);
  ac_ = std::make_unique<spice::AcSolver>(circuit_.netlist);
  if (parent.options().transient) {
    step_circuit_ = std::make_unique<BuiltCircuit>(
        parent.topology().build(x, Testbench::kStepBuffer));
    require(step_circuit_->netlist.mosfets().size() ==
                circuit_.netlist.mosfets().size(),
            "Session: step testbench transistor count mismatch");
    require(step_circuit_->step.source >= 0,
            "Session: step testbench has no stimulus");
    step_dc_ = std::make_unique<spice::DcSolver>(step_circuit_->netlist);
    tran_ = std::make_unique<spice::TranSolver>(step_circuit_->netlist);
  }
  nominal_perf_ = measure(/*is_nominal=*/true);
}

void AmplifierEvaluator::Session::apply_process(std::span<const double> xi) {
  const ProcessModel& process = parent_->process_;
  for (std::size_t i = 0; i < base_cards_.size(); ++i) {
    spice::Mosfet& m = circuit_.netlist.mosfet(static_cast<int>(i));
    if (xi.empty()) {
      m.model = base_cards_[i];
    } else {
      m.model = apply_deltas(
          base_cards_[i],
          process.device_deltas(xi, static_cast<int>(i), m.is_pmos, m.w, m.l));
    }
    if (step_circuit_) {
      // Same canonical transistor order in both testbenches: the perturbed
      // card applies verbatim, keeping both MNA layouts valid.
      step_circuit_->netlist.mosfet(static_cast<int>(i)).model = m.model;
    }
  }
}

Performance AmplifierEvaluator::Session::evaluate(std::span<const double> xi) {
  if (xi.empty()) return nominal_perf_;
  apply_process(xi);
  return measure(/*is_nominal=*/false);
}

Performance AmplifierEvaluator::Session::measure(bool is_nominal) {
  Performance perf = measure_small_signal(is_nominal);
  // The step-buffer transient only runs on samples whose small-signal
  // evaluation converged; a sample that cannot even bias is already a fail.
  if (perf.valid && tran_) measure_transient(is_nominal, &perf);
  return perf;
}

Performance AmplifierEvaluator::Session::measure_small_signal(
    bool is_nominal) {
  Performance perf;
  perf.area = circuit_.gate_area;

  // --- DC operating point (warm-started from the nominal solution). ---
  spice::DcOptions dc_options;
  std::vector<double> x;
  if (have_nominal_solution_) x = nominal_solution_;
  const spice::SolveStatus dc_status = dc_->solve(dc_options, &x);
  if (dc_status != spice::SolveStatus::kOk) {
    // End of the solver ladder: the sample stays invalid and fails specs.
    fail::ladder_count(fail::Ladder::kSampleInfeasible);
    return perf;
  }
  if (is_nominal) {
    nominal_solution_ = x;
    have_nominal_solution_ = true;
  }
  const spice::OperatingPoint& op = dc_->op();

  perf.power =
      circuit_.vdd * std::fabs(op.vsource_current[circuit_.vdd_source]);
  perf.offset = std::fabs(op.node_voltage[circuit_.outp] -
                          op.node_voltage[circuit_.outn]);

  double sat_margin = 1e9;
  for (const auto& mos : op.mosfets) {
    sat_margin = std::min(sat_margin, mos.sat_margin);
  }
  perf.sat_margin = sat_margin;

  double top = 0.0, bottom = 0.0;
  for (int i : circuit_.swing_top) top += op.mosfets[i].eval.vdsat;
  for (int i : circuit_.swing_bottom) bottom += op.mosfets[i].eval.vdsat;
  perf.swing = 2.0 * (circuit_.vdd - top - bottom);

  measure_ac(is_nominal, op, &perf);
  return perf;
}

void AmplifierEvaluator::Session::measure_ac(bool is_nominal,
                                             const spice::OperatingPoint& op,
                                             Performance* out) {
  Performance& perf = *out;
  // --- AC: A0, GBW (log bisection on |H| = 1), phase margin. ---
  ac_->prepare(op);
  auto transfer = [&](double freq,
                      std::complex<double>* h) -> spice::SolveStatus {
    const spice::SolveStatus status = ac_->solve(freq);
    if (status == spice::SolveStatus::kOk) {
      *h = ac_->differential(circuit_.outp, circuit_.outn);
    }
    return status;
  };

  std::complex<double> h0;
  if (transfer(kAcFrequencyLow, &h0) != spice::SolveStatus::kOk) return;
  const double mag0 = std::abs(h0);
  if (!(mag0 > 0.0) || !std::isfinite(mag0)) return;
  perf.a0_db = 20.0 * std::log10(mag0);

  if (mag0 <= 1.0) {
    // Gain below 0 dB: no unity crossing; report a broken-but-valid sample.
    perf.gbw = 0.0;
    perf.pm_deg = -180.0;
    perf.valid = true;
    return;
  }

  auto magnitude_at = [&](double freq, bool* ok) {
    std::complex<double> h;
    *ok = transfer(freq, &h) == spice::SolveStatus::kOk;
    return std::abs(h);
  };

  bool ok = true;
  double fa = kAcFrequencyLow;            // |H| > 1 here
  double fb = 0.0;                        // will satisfy |H| < 1
  double seed = last_crossing_ > 0.0 ? last_crossing_ : 1e6;
  const double mag_seed = magnitude_at(seed, &ok);
  if (!ok) return;
  if (mag_seed > 1.0) {
    fa = seed;
    fb = seed;
    do {
      fb *= 4.0;
      if (fb > kMaxFrequency) {
        perf.gbw = kMaxFrequency;
        perf.pm_deg = 0.0;
        perf.valid = true;
        return;
      }
      const double m = magnitude_at(fb, &ok);
      if (!ok) return;
      if (m <= 1.0) break;
      fa = fb;
    } while (true);
  } else {
    fb = seed;
    double fcur = seed;
    while (fcur > 4.0 * kAcFrequencyLow) {
      fcur *= 0.25;
      const double m = magnitude_at(fcur, &ok);
      if (!ok) return;
      if (m > 1.0) {
        fa = fcur;
        break;
      }
      fb = fcur;
    }
  }
  for (int iter = 0; iter < 48 && fb / fa > 1.002; ++iter) {
    const double fm = std::sqrt(fa * fb);
    const double m = magnitude_at(fm, &ok);
    if (!ok) return;
    (m > 1.0 ? fa : fb) = fm;
  }
  perf.gbw = std::sqrt(fa * fb);
  // Only the nominal measurement seeds the crossing search: sample results
  // must be pure functions of (x, xi), independent of evaluation order.
  if (is_nominal) last_crossing_ = perf.gbw;

  std::complex<double> hc;
  if (transfer(perf.gbw, &hc) != spice::SolveStatus::kOk) return;
  // Normalize by the DC response so a constant output inversion does not
  // shift the phase reference.
  const double phase_rel = std::arg(hc / h0);
  perf.pm_deg = 180.0 + phase_rel * 180.0 / M_PI;
  perf.valid = true;
}

void AmplifierEvaluator::Session::measure_transient(bool is_nominal,
                                                    Performance* perf) {
  const BuiltCircuit& bc = *step_circuit_;

  // Operating point of the buffer (input held at the pulse's t=0 level),
  // warm-started from the nominal buffer solution across process samples.
  spice::DcOptions dc_options = parent_->options_.tran.dc;
  std::vector<double> x;
  if (have_step_nominal_) x = step_nominal_solution_;
  if (step_dc_->solve(dc_options, &x) != spice::SolveStatus::kOk) {
    fail::ladder_count(fail::Ladder::kSampleInfeasible);
    return;  // slew/settling keep their spec-failing defaults
  }
  if (is_nominal) {
    step_nominal_solution_ = x;
    have_step_nominal_ = true;
  }

  spice::TranOptions tran_options = parent_->options_.tran;
  tran_options.t_stop = bc.step.t_stop;
  if (tran_->run(tran_options, &x) != spice::SolveStatus::kOk) {
    fail::ladder_count(fail::Ladder::kSampleInfeasible);
    return;
  }

  const std::size_t points = tran_->num_points();
  std::vector<double> vout(points);
  for (std::size_t k = 0; k < points; ++k) {
    vout[k] = tran_->differential(k, bc.outp, bc.outn);
  }
  const StepMetrics metrics = measure_step_response(
      tran_->time(), vout, bc.step.t_delay, bc.step.settle_frac);
  // Copy what was measured even when the response did not settle: the
  // settling spec still fails (settling_time = full horizon), but
  // per-metric consumers (PSWCD margins, bench readouts) see the real
  // slew rate instead of the spec-failing default.
  perf->slew_rate = metrics.slew_rate;
  if (metrics.valid || metrics.settling_time > 0.0) {
    perf->settling_time = metrics.settling_time;
  }
}

}  // namespace moheco::circuits
