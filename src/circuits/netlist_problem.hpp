// Deck-driven yield problems: any SPICE deck with the MOHECO extension
// cards (.param design variables, .variation statistics, .spec constraints,
// .probe measurement hooks -- see src/spice/deck_parser.hpp) becomes a full
// mc::YieldProblem without writing C++.
//
// DeckTopology adapts a parsed spice::Deck to the circuits::Topology
// contract: build(x) instantiates the netlist template at a design vector,
// the .probe cards supply the measurement hooks (output pair, supply
// source, swing stacks, step stimulus) and the .variation cards synthesize
// a circuits::Technology whose mismatch laws and inter-die variables drive
// the existing ProcessModel.  NetlistYieldProblem is then a plain
// CircuitYieldProblem over that topology: the deck path and the hand-coded
// C++ topologies share ONE evaluation pipeline (AmplifierEvaluator
// sessions, EvalScheduler caching), which is what makes a
// deck exported from a built-in topology reproduce its yield tallies
// bit-for-bit under the same seed.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/circuits/circuit_yield.hpp"
#include "src/circuits/topology.hpp"
#include "src/spice/deck_parser.hpp"

namespace moheco::circuits {

class DeckTopology final : public Topology {
 public:
  /// Validates the deck's extension cards (probe targets must exist, spec
  /// metrics must be known, the .variation tech must be built in) and
  /// resolves them against one nominal instantiation.  Throws
  /// spice::DeckError with the offending card's line on violation.
  explicit DeckTopology(spice::Deck deck);

  std::string name() const override;
  const Technology& tech() const override { return tech_; }
  int num_transistors() const override { return num_transistors_; }
  const std::vector<DesignVar>& design_vars() const override { return vars_; }
  const std::vector<Spec>& specs() const override { return specs_; }
  const std::vector<Spec>& transient_specs() const override {
    return tran_specs_;
  }
  BuiltCircuit build(std::span<const double> x,
                     Testbench testbench) const override;
  using Topology::build;  ///< keep the one-argument convenience visible

  const spice::Deck& deck() const { return deck_; }
  /// Nominal design vector (the .param value expressions).
  std::vector<double> nominal_x() const { return deck_.nominal_design(); }
  /// True when the deck declares a step-response bench (.probe step): only
  /// then may the problem run with EvalOptions::transient.
  bool has_step_bench() const { return !deck_.probes.step_source.empty(); }

 private:
  [[noreturn]] void card_error(int line, const std::string& message) const;

  spice::Deck deck_;
  Technology tech_;  ///< synthesized from the .variation cards
  std::vector<DesignVar> vars_;
  std::vector<Spec> specs_;
  std::vector<Spec> tran_specs_;
  int num_transistors_ = 0;
  // Measurement hooks resolved once against the nominal instantiation
  // (device indices and node ids are instantiation-independent: the deck
  // fixes construction order).
  spice::NodeId outp_ = 0, outn_ = 0;
  int vdd_source_ = -1;
  int step_source_ = -1;
  std::vector<int> swing_top_, swing_bottom_;
};

/// Maps a .spec metric keyword (a0_db/gain, gbw, pm_deg/pm, swing, power,
/// offset, area, sat_margin, slew_rate, settling_time) to the Performance
/// metric; throws InvalidArgument on unknown names.
Metric metric_from_keyword(const std::string& keyword);

class NetlistYieldProblem final : public CircuitYieldProblem {
 public:
  /// `options.transient` requires the deck to declare a .probe step bench.
  explicit NetlistYieldProblem(spice::Deck deck, EvalOptions options = {});

  const DeckTopology& deck_topology() const { return *deck_topology_; }
  std::vector<double> nominal_x() const {
    return deck_topology_->nominal_x();
  }
  /// The sized netlist at design x, for deck re-export.
  spice::Netlist sized_netlist(std::span<const double> x) const {
    return deck_topology_->deck().instantiate(x);
  }

 private:
  const DeckTopology* deck_topology_;  ///< owned by the base's evaluator
};

/// Parses `path` and wraps it as a yield problem (one-stop CLI entry).
std::unique_ptr<NetlistYieldProblem> load_netlist_problem(
    const std::string& path, EvalOptions options = {});

}  // namespace moheco::circuits
