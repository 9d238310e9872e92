// The repository benchmark's in-process program (see README.md here).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE]
//
// Run from the repository root (examples/ is read from there).  Runs one
// workload against the public API of libmoheco and prints, as the
// last line of standard output, one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// preceded by one header line with the host and build identity.
//
// --trace 0 is the plain run: no decorator, timing and tracing disarmed; it
// reports the end-to-end metrics.  --trace 1 alternates plain passes with
// traced passes (timing armed, spans recorded, the yield problem wrapped in
// a result-transparent timing decorator), checks that both give identical
// simulation counts and yields, and reports the per-layer ledger.  Every
// layer is timed from outside: the decorator at the mc -> circuits
// boundary, the calls this file makes, direct calls into the spice solvers,
// and deltas of the always-on obs::registry() instruments.  Nothing inside
// src/ is instrumented for the benchmark.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/circuits/circuit_yield.hpp"
#include "src/circuits/netlist_problem.hpp"
#include "src/common/parallel.hpp"
#include "src/core/moheco.hpp"
#include "src/linalg/simd_caps.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/obs/build_info.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/spice/ac_solver.hpp"
#include "src/spice/dc_solver.hpp"
#include "src/spice/deck_parser.hpp"
#include "src/spice/tran_solver.hpp"
#include "src/stats/distributions.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace moheco;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// ---------------------------------------------------------------------------
// Workload definitions.

/// Wilson interval width for every output check: z = 3 keeps the chance of
/// flagging a correct run below ~0.3% per comparison.
constexpr double kCheckZ = 3.0;
/// Set-up is timed in blocks.  Each block repeats it for at least
/// kSetupBlockSeconds and keeps its fastest time; setup_s is the median of
/// the blocks' fastest.  One set-up takes 5-100 us, so a single timing
/// reads the host's load at that instant.
constexpr int kSetupBlocks = 9;
constexpr double kSetupBlockSeconds = 0.2;
constexpr int kSetupMinPerBlock = 5;
/// Example 1 panel: optimizer runs per pass, at the paper's population.
/// The generation cap bounds each run's cost.  Uncapped, one run costs
/// 0.2 s to 15 s depending on its seed; capped at 12 generations a few
/// seeds in a hundred still cost 10x the median (local search and stage-2
/// promotions); at 8 the costs stay within 2.3x of the median, and 96 runs
/// average the seed out to about 5% between workload seeds.
constexpr int kEx1Runs = 96;
constexpr int kEx1Population = 50;
constexpr int kEx1MaxGenerations = 8;
/// Untimed reference MC behind each feasible example-1 run's check.
constexpr long long kEx1ReferenceSamples = 2000;
/// Untimed estimate at the design point of the estimate workloads, checked
/// against the pinned tally.  At this size, against a 40,000-sample tally,
/// the z = 3 interval overlap catches a yield bias of 0.05.
constexpr long long kDesignCheckSamples = 4000;
/// Example-1 calls of the first traced pass that record spans: a whole pass
/// opens about 43,000 sessions, more than the per-thread rings hold.
constexpr int kEx1TracedCalls = 8;

// Fixed design points (the bench_micro_simulator sizings).
const std::vector<double> kFoldedX0 = {200e-6, 120e-6, 160e-6, 160e-6,
                                       100e-6, 0.7e-6, 0.5e-6, 1.0e-6,
                                       35e-6,  4.5,    1.9};
const std::vector<double> kTelescopicX0 = {
    50e-6,   40e-6,  60e-6, 80e-6, 40e-6,   100e-6, 0.2e-6,
    0.2e-6, 0.15e-6, 5.0e-5, 4.0,  1.1e-12, 300.0};

/// A pass/fail tally pinned once with a large Monte-Carlo run at the
/// workload's design point (method in README.md).
struct Tally {
  long long passes = 0;
  long long samples = 0;
};

/// Everything set-up builds; setup_s times its construction.
struct Fixture {
  std::unique_ptr<circuits::CircuitYieldProblem> problem;
  std::unique_ptr<ThreadPool> pool;
  /// Scheduler of the untimed reference checks.  Every measured call gets
  /// a fresh scheduler, so no session or warm blob outlives a call.
  std::unique_ptr<mc::EvalScheduler> scheduler;
  std::vector<double> design;  ///< estimate point and solver-probe point
  double deck_parse_us = 0.0;  ///< 0 when the workload loads no deck
};

struct WorkloadSpec {
  const char* name;
  int threads;
  /// True: each call is one MohecoOptimizer::run; false: each call is one
  /// Monte-Carlo estimate of `estimate_samples` samples at the design.
  bool optimize;
  int calls;
  long long estimate_samples;
  Tally pinned;  ///< estimate workloads only
  std::function<Fixture(int threads)> build;
};

Fixture make_fixture(std::unique_ptr<circuits::CircuitYieldProblem> problem,
                     std::vector<double> design, int threads) {
  Fixture fixture;
  fixture.problem = std::move(problem);
  fixture.pool = std::make_unique<ThreadPool>(threads);
  fixture.scheduler = std::make_unique<mc::EvalScheduler>(*fixture.pool);
  fixture.design = std::move(design);
  return fixture;
}

/// Workers of the multi-threaded workload (example 1) and of the untimed
/// checks, capped at one per core.  One core of the 4-core host this was
/// tuned on stays free: with all four busy, other tenants' load stalls the
/// scheduler's flush barriers, and wall times spread 16-20% over ten
/// seeds, against 10-12% with three.  The estimates run on one worker: a
/// multi-worker pass waits for its slowest worker, and in interleaved runs
/// ex2 spread about 20% over five seeds on 3 workers, 10% on one.
constexpr int kWorkers = 3;

int worker_count(int wanted) {
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(wanted, cores);
}

std::vector<WorkloadSpec> workloads() {
  return {
      {"ex1_optimize", worker_count(kWorkers), true, kEx1Runs, 0, {},
       [](int threads) {
         return make_fixture(std::make_unique<circuits::CircuitYieldProblem>(
                                 circuits::make_folded_cascode()),
                             kFoldedX0, threads);
       }},
      {"ota_deck_estimate", 1, false, 1, 2000, {30497, 40000},
       [](int threads) {
         const auto start = Clock::now();
         spice::Deck deck = spice::parse_deck_file("examples/five_t_ota.cir");
         const double parse_us = 1e6 * seconds_since(start);
         auto problem =
             std::make_unique<circuits::NetlistYieldProblem>(std::move(deck));
         std::vector<double> design = problem->nominal_x();
         Fixture fixture =
             make_fixture(std::move(problem), std::move(design), threads);
         fixture.deck_parse_us = parse_us;
         return fixture;
       }},
      {"ex2_transient_estimate", 1, false, 1, 128,
       {24777, 40000},
       [](int threads) {
         circuits::EvalOptions options;
         options.transient = true;
         return make_fixture(std::make_unique<circuits::CircuitYieldProblem>(
                                 circuits::make_two_stage_telescopic(),
                                 options),
                             kTelescopicX0, threads);
       }},
  };
}

// ---------------------------------------------------------------------------
// Registry deltas.

/// Totals of the registry's counters, plus "<histogram>.sum" per histogram.
using RegistryTotals = std::map<std::string, double>;

RegistryTotals read_registry() {
  const obs::Snapshot snap = obs::registry().snapshot();
  RegistryTotals totals;
  for (const auto& [name, value] : snap.counters) {
    totals[name] = static_cast<double>(value);
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    totals[h.name + ".sum"] = static_cast<double>(h.sum);
  }
  return totals;
}

double delta(const RegistryTotals& before, const RegistryTotals& after,
             const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0.0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0.0 : b->second);
}

std::uint64_t cache_hits() {
  return obs::registry().counter("results_cache.hits").value();
}

// ---------------------------------------------------------------------------
// Timing decorator at the mc -> circuits boundary.

/// Per-sample and per-open durations recorded by the decorator.
class SampleLedger {
 public:
  void add_samples(double us_per_sample, std::size_t count) {
    std::lock_guard<std::mutex> lock(mutex_);
    sample_us_.insert(sample_us_.end(), count, us_per_sample);
    busy_us_ += us_per_sample * static_cast<double>(count);
  }
  void add_open(double us) {
    std::lock_guard<std::mutex> lock(mutex_);
    open_us_.push_back(us);
    busy_us_ += us;
  }
  const std::vector<double>& sample_us() const { return sample_us_; }
  const std::vector<double>& open_us() const { return open_us_; }
  double busy_s() const { return busy_us_ * 1e-6; }

 private:
  std::mutex mutex_;
  std::vector<double> sample_us_;
  std::vector<double> open_us_;
  double busy_us_ = 0.0;
};

double us_since(Clock::time_point start) { return 1e6 * seconds_since(start); }

/// Forwards every call to the wrapped session and records its duration.
/// Results pass through untouched, so tallies match the undecorated run.
class TimedSession final : public mc::YieldProblem::Session {
 public:
  TimedSession(std::unique_ptr<mc::YieldProblem::Session> inner,
               SampleLedger& ledger)
      : inner_(std::move(inner)), ledger_(&ledger) {}

  mc::SampleResult evaluate(std::span<const double> xi) override {
    const auto start = Clock::now();
    const mc::SampleResult result = inner_->evaluate(xi);
    ledger_->add_samples(us_since(start), 1);
    return result;
  }
  void evaluate_batch(std::span<const double> xis, std::size_t lanes,
                      std::span<mc::SampleResult> out) override {
    const auto start = Clock::now();
    inner_->evaluate_batch(xis, lanes, out);
    if (lanes > 0) {
      ledger_->add_samples(us_since(start) / static_cast<double>(lanes),
                           lanes);
    }
  }
  std::size_t preferred_batch() const override {
    return inner_->preferred_batch();
  }
  std::vector<double> warm_start_blob() const override {
    return inner_->warm_start_blob();
  }

 private:
  std::unique_ptr<mc::YieldProblem::Session> inner_;
  SampleLedger* ledger_;
};

class TimedProblem final : public mc::YieldProblem {
 public:
  TimedProblem(const mc::YieldProblem& inner, SampleLedger& ledger)
      : inner_(&inner), ledger_(&ledger) {}

  std::size_t num_design_vars() const override {
    return inner_->num_design_vars();
  }
  double lower_bound(std::size_t i) const override {
    return inner_->lower_bound(i);
  }
  double upper_bound(std::size_t i) const override {
    return inner_->upper_bound(i);
  }
  std::size_t noise_dim() const override { return inner_->noise_dim(); }
  std::unique_ptr<Session> open(std::span<const double> x) const override {
    return timed_open([&] { return inner_->open(x); });
  }
  std::unique_ptr<Session> open_warm(
      std::span<const double> x,
      std::span<const double> blob) const override {
    return timed_open([&] { return inner_->open_warm(x, blob); });
  }

 private:
  template <typename Open>
  std::unique_ptr<Session> timed_open(const Open& open) const {
    obs::Span span("perfbench.session_open");
    const auto start = Clock::now();
    std::unique_ptr<Session> session = open();
    ledger_->add_open(us_since(start));
    return std::make_unique<TimedSession>(std::move(session), *ledger_);
  }

  const mc::YieldProblem* inner_;
  SampleLedger* ledger_;
};

// ---------------------------------------------------------------------------
// Measured calls.

/// Outcome of one measured call (an optimizer run or an estimate).
struct Call {
  double wall_s = 0.0;
  long long sims = 0;  ///< simulations counted by the program
  bool feasible = false;
  double yield = 0.0;
  long long yield_samples = 0;  ///< samples behind `yield`
  std::vector<double> x;        ///< reported design
  int generations = 0;
  mc::SimBreakdown breakdown;
  std::uint64_t cache_hits = 0;

  /// The bit-identity contract: same inputs, same counts and results.
  bool same_result(const Call& other) const {
    return sims == other.sims && feasible == other.feasible &&
           yield == other.yield && yield_samples == other.yield_samples &&
           x == other.x && generations == other.generations;
  }
};

struct Pass {
  double wall_s = 0.0;
  std::vector<Call> calls;
  RegistryTotals before, after;
  long long sims() const {
    long long total = 0;
    for (const Call& c : calls) total += c.sims;
    return total;
  }
};

Call run_call(const WorkloadSpec& spec, const Fixture& fixture,
              const mc::YieldProblem& problem, std::uint64_t seed, int index) {
  Call call;
  const std::uint64_t hits_before = cache_hits();
  const auto start = Clock::now();
  if (spec.optimize) {
    obs::Span span("perfbench.optimize", index);
    core::MohecoOptions options;
    options.population = kEx1Population;
    options.max_generations = kEx1MaxGenerations;
    options.seed =
        stats::derive_seed(seed, 0xE1, static_cast<std::uint64_t>(index));
    mc::EvalScheduler scheduler(*fixture.pool, options.scheduler);
    core::MohecoOptimizer optimizer(problem, options, scheduler);
    const core::MohecoResult result = optimizer.run();
    call.wall_s = seconds_since(start);
    call.sims = result.total_simulations;
    call.feasible = result.best.fitness.feasible;
    call.yield = result.best.fitness.yield;
    call.yield_samples = result.best.samples;
    call.x = result.best.x;
    call.generations = result.generations;
    call.breakdown = result.sim_breakdown;
  } else {
    obs::Span span("perfbench.estimate", spec.estimate_samples);
    mc::EvalScheduler scheduler(*fixture.pool);
    mc::SimCounter sims;
    call.yield = mc::reference_yield(
        problem, fixture.design, spec.estimate_samples,
        stats::derive_seed(seed, 0xE5), scheduler,
        stats::SamplingMethod::kLHS, &sims);
    call.wall_s = seconds_since(start);
    call.sims = sims.total();
    call.feasible = true;
    call.yield_samples = spec.estimate_samples;
    call.x = fixture.design;
    call.breakdown = sims.breakdown();
  }
  call.cache_hits = cache_hits() - hits_before;
  return call;
}

/// Runs one pass.  With `span_calls` > 0, spans are recorded during the
/// first `span_calls` calls only.
Pass run_pass(const WorkloadSpec& spec, const Fixture& fixture,
              const mc::YieldProblem& problem, std::uint64_t seed,
              int span_calls = 0) {
  Pass pass;
  pass.before = read_registry();
  const auto start = Clock::now();
  for (int i = 0; i < spec.calls; ++i) {
    obs::set_trace_enabled(i < span_calls);
    pass.calls.push_back(run_call(spec, fixture, problem, seed, i));
  }
  obs::set_trace_enabled(false);
  pass.wall_s = seconds_since(start);
  pass.after = read_registry();
  return pass;
}

// ---------------------------------------------------------------------------
// Output checks.

bool intervals_overlap(const Tally& a, const Tally& b) {
  const stats::Interval ia =
      stats::wilson_interval(a.passes, a.samples, kCheckZ);
  const stats::Interval ib =
      stats::wilson_interval(b.passes, b.samples, kCheckZ);
  return ia.lo <= ib.hi && ib.lo <= ia.hi;
}

Tally tally_of(double yield, long long samples) {
  return {std::llround(yield * static_cast<double>(samples)), samples};
}

/// Checks one call of the first pass; returns an empty string when it
/// passes, else the reason.  Example-1 runs are checked against an untimed
/// reference MC at the reported design, estimates against the pinned tally.
std::string check_call(const WorkloadSpec& spec, const Fixture& fixture,
                       const Call& call, std::uint64_t seed,
                       std::size_t index) {
  if (call.cache_hits != 0) return "results cache hit";
  if (call.sims <= 0) return "no simulations counted";
  if (!spec.optimize) {
    if (!intervals_overlap(tally_of(call.yield, call.yield_samples),
                           spec.pinned)) {
      return "estimate " + std::to_string(call.yield) +
             " disagrees with the pinned tally";
    }
    return "";
  }
  if (!call.feasible) return "";  // no design to check
  if (call.yield_samples <= 0) return "feasible design without samples";
  const double reference = mc::reference_yield(
      *fixture.problem, call.x, kEx1ReferenceSamples,
      stats::derive_seed(seed, 0xFEF, index),
      *fixture.scheduler);
  if (!intervals_overlap(tally_of(call.yield, call.yield_samples),
                         tally_of(reference, kEx1ReferenceSamples))) {
    return "reported yield " + std::to_string(call.yield) +
           " disagrees with reference " + std::to_string(reference);
  }
  return "";
}

/// Untimed check of an estimate workload's yield at its design point: a
/// larger LHS estimate through the measured path, on kWorkers workers,
/// against the pinned tally.  Empty when it passes, else the reason.
std::string check_design(const WorkloadSpec& spec, const Fixture& fixture,
                         std::uint64_t seed) {
  ThreadPool pool(worker_count(kWorkers));
  const double yield = mc::reference_yield(
      *fixture.problem, fixture.design, kDesignCheckSamples,
      stats::derive_seed(seed, 0xC4E), pool, stats::SamplingMethod::kLHS);
  if (!intervals_overlap(tally_of(yield, kDesignCheckSamples), spec.pinned)) {
    return "design-point estimate " + std::to_string(yield) +
           " disagrees with the pinned tally";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Direct solver probes at the workload's design point.

struct SolverProbes {
  double dc_solve_us = 0.0;
  double ac_probe_us = 0.0;
  double tran_run_us = 0.0;  ///< 0 when the workload runs no transient
};

/// Median duration of fn() over repeated calls, bounded by count and time.
double median_call_us(const std::function<void()>& fn, int max_calls,
                      double max_seconds) {
  std::vector<double> us;
  const auto start = Clock::now();
  while (static_cast<int>(us.size()) < max_calls &&
         (us.size() < 5 || seconds_since(start) < max_seconds)) {
    const auto t = Clock::now();
    fn();
    us.push_back(us_since(t));
  }
  return median(us);
}

SolverProbes probe_solvers(const Fixture& fixture) {
  const circuits::CircuitYieldProblem& problem = *fixture.problem;
  const circuits::EvalOptions& options = problem.evaluator().options();
  const circuits::BuiltCircuit circuit =
      problem.topology().build(fixture.design);
  SolverProbes probes;

  spice::DcSolver dc(circuit.netlist, options.backend);
  const spice::DcOptions dc_options;
  std::vector<double> nominal;
  if (dc.solve(dc_options, &nominal) != spice::SolveStatus::kOk) {
    throw std::runtime_error("nominal DC solve failed at the design point");
  }
  // A sample's DC solve starts from the nominal solution but not at its
  // own answer; a start 1% off every unknown takes a comparable number of
  // Newton iterations.
  std::vector<double> start = nominal;
  for (double& v : start) v *= 1.01;
  probes.dc_solve_us = median_call_us(
      [&] {
        std::vector<double> x = start;
        if (dc.solve(dc_options, &x) != spice::SolveStatus::kOk) {
          throw std::runtime_error("warm DC solve failed");
        }
      },
      2000, 0.3);
  // Back to the nominal operating point for the AC probe.
  std::vector<double> x = nominal;
  dc.solve(dc_options, &x);
  spice::AcSolver ac(circuit.netlist, dc.op(), options.backend);
  probes.ac_probe_us = median_call_us(
      [&] {
        if (ac.solve(1e6) != spice::SolveStatus::kOk) {
          throw std::runtime_error("AC probe failed");
        }
      },
      2000, 0.3);

  if (options.transient) {
    const circuits::BuiltCircuit step =
        problem.topology().build(fixture.design,
                                 circuits::Testbench::kStepBuffer);
    spice::DcSolver step_dc(step.netlist, options.backend);
    std::vector<double> op;
    if (step_dc.solve(options.tran.dc, &op) != spice::SolveStatus::kOk) {
      throw std::runtime_error("step-bench DC solve failed");
    }
    spice::TranSolver tran(step.netlist, options.backend);
    spice::TranOptions tran_options = options.tran;
    tran_options.t_stop = step.step.t_stop;
    probes.tran_run_us = median_call_us(
        [&] {
          if (tran.run(tran_options, &op) != spice::SolveStatus::kOk) {
            throw std::runtime_error("transient run failed");
          }
        },
        200, 0.5);
  }
  return probes;
}

// ---------------------------------------------------------------------------
// Result assembly.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + metrics[i].name + "\":{\"value\":" +
            format_number(metrics[i].value) + ",\"unit\":\"" +
            metrics[i].unit + "\"}";
  }
  return json + "}}";
}

std::string header_json(const WorkloadSpec& spec, std::uint64_t seed,
                        bool trace) {
  const linalg::SimdCaps& caps = linalg::simd_caps();
  std::string json = "{\"perfbench\":{\"workload\":\"";
  json += spec.name;
  json += "\",\"seed\":" + std::to_string(seed);
  json += ",\"trace\":" + std::to_string(trace ? 1 : 0);
  json += ",\"threads\":" + std::to_string(spec.threads);
  json += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  json += ",\"simd\":{\"avx2\":";
  json += caps.avx2 ? "true" : "false";
  json += ",\"avx512f\":";
  json += caps.avx512f ? "true" : "false";
  json += ",\"max_lane_width\":" + std::to_string(caps.max_lane_width) + "}";
  json += ",\"build\":" + obs::build_json() + "}}";
  return json;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per call index, the best (lowest) wall over the passes.  Other tenants
/// of a shared host slow whole seconds of a run by up to 1.8x; the best of
/// several passes is the cost of the work itself (README.md, host noise).
std::vector<double> best_call_walls(const std::vector<Pass>& passes) {
  std::vector<double> walls(passes.front().calls.size(), HUGE_VAL);
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < walls.size(); ++i) {
      walls[i] = std::min(walls[i], p.calls[i].wall_s);
    }
  }
  return walls;
}

double total_of(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// Geometric mean of positive values: the per-run summary of a pass, so
/// that one expensive optimizer seed does not dominate it.
double geometric_mean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return args;
}

int run(const Args& args) {
  const std::vector<WorkloadSpec> specs = workloads();
  const auto found =
      std::find_if(specs.begin(), specs.end(), [&](const WorkloadSpec& s) {
        return args.workload == s.name;
      });
  if (found == specs.end()) usage("unknown workload " + args.workload);
  const WorkloadSpec& spec = *found;
  std::printf("%s\n", header_json(spec, args.seed, args.trace).c_str());
  std::fflush(stdout);

  obs::set_timing_enabled(false);
  obs::set_trace_enabled(args.trace);
  const auto run_start = Clock::now();

  // Set-up, repeated in blocks; the last fixture is the one measured.
  Fixture fixture;
  std::vector<double> setup_s, parse_us;
  for (int b = 0; b < kSetupBlocks; ++b) {
    obs::Span span("perfbench.setup", b);
    double fastest = HUGE_VAL;
    const auto block_start = Clock::now();
    for (int r = 0; r < kSetupMinPerBlock ||
                    seconds_since(block_start) < kSetupBlockSeconds;
         ++r) {
      fixture = Fixture{};  // tear the previous one down outside the timing
      const auto start = Clock::now();
      fixture = spec.build(spec.threads);
      fastest = std::min(fastest, seconds_since(start));
      parse_us.push_back(fixture.deck_parse_us);
    }
    setup_s.push_back(fastest);
  }
  obs::set_trace_enabled(false);

  // Measured passes: plain only, or plain alternating with traced.
  const double budget = args.seconds - seconds_since(run_start);
  const auto measure_start = Clock::now();
  std::vector<Pass> plain, traced;
  SampleLedger ledger;
  const TimedProblem timed(*fixture.problem, ledger);
  double last_round_s = 0.0;
  do {
    const auto round_start = Clock::now();
    plain.push_back(run_pass(spec, fixture, *fixture.problem, args.seed));
    if (args.trace) {
      // Spans from the first traced pass only, and on example 1 from its
      // first calls only, so that no per-thread ring wraps.
      const int span_calls =
          !traced.empty() ? 0 : spec.optimize ? kEx1TracedCalls : spec.calls;
      obs::set_timing_enabled(true);
      traced.push_back(run_pass(spec, fixture, timed, args.seed, span_calls));
      obs::set_timing_enabled(false);
    }
    last_round_s = seconds_since(round_start);
  } while (seconds_since(measure_start) + last_round_s <= budget);

  std::vector<double> pass_walls;
  for (const Pass& pass : plain) pass_walls.push_back(pass.wall_s);
  std::fprintf(stderr, "perfbench: %zu plain passes, wall min %.4f s, median "
               "%.4f s\n", plain.size(),
               *std::min_element(pass_walls.begin(), pass_walls.end()),
               median(pass_walls));

  // Output checks (untimed).  A call that fails any of them counts as
  // failed in every plain pass.
  const std::vector<Call>& first = plain.front().calls;
  std::vector<std::string> call_errors;
  for (std::size_t i = 0; i < first.size(); ++i) {
    call_errors.push_back(check_call(spec, fixture, first[i], args.seed, i));
  }
  if (!spec.optimize) {
    const std::string design_error = check_design(spec, fixture, args.seed);
    for (std::string& error : call_errors) error += design_error;
  }
  // Same seed, same result: across passes, between plain and traced runs,
  // and (when a plain run made a single pass) against untimed re-runs.
  std::vector<Pass> reruns(plain.size() == 1 && !args.trace ? 1 : 0);
  for (Pass& rerun : reruns) {
    for (int i = 0; i < std::min(2, spec.calls); ++i) {
      rerun.calls.push_back(
          run_call(spec, fixture, *fixture.problem, args.seed, i));
    }
  }
  for (const std::vector<Pass>* group : {&plain, &traced, &reruns}) {
    for (const Pass& pass : *group) {
      for (std::size_t i = 0; i < pass.calls.size(); ++i) {
        if (!pass.calls[i].same_result(first[i])) {
          call_errors[i] += " result differs between same-seed runs;";
        }
        if (pass.calls[i].cache_hits != 0) call_errors[i] += " cache hit;";
      }
    }
  }
  for (std::size_t i = 0; i < call_errors.size(); ++i) {
    if (!call_errors[i].empty()) {
      std::fprintf(stderr, "perfbench: %s call %zu failed: %s\n", spec.name,
                   i, call_errors[i].c_str());
    }
  }

  // Plain-pass accounting: calls and simulations attempted and failed.
  long long attempted = 0, failed = 0;
  long long sims_attempted = 0, sims_failed = 0;
  for (const Pass& pass : plain) {
    for (std::size_t i = 0; i < pass.calls.size(); ++i) {
      ++attempted;
      sims_attempted += pass.calls[i].sims;
      if (!call_errors[i].empty()) {
        ++failed;
        sims_failed += pass.calls[i].sims;
      }
    }
    sims_failed += static_cast<long long>(
        delta(pass.before, pass.after, "fail.sample_infeasible"));
  }
  const bool correct = failed == 0;

  std::vector<Metric> metrics;
  const std::vector<double> walls = best_call_walls(plain);
  std::vector<double> sims;
  for (const Call& call : plain.front().calls) {
    sims.push_back(static_cast<double>(call.sims));
  }
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"wall_s", geometric_mean(walls), "s"},
        {"sims_per_s", total_of(sims) / total_of(walls), "1/s"},
        {"total_sims", geometric_mean(sims), "count"},
        {"sim_ok_frac",
         1.0 - std::min(1.0, static_cast<double>(sims_failed) /
                                 static_cast<double>(
                                     std::max<long long>(sims_attempted, 1))),
         "frac"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    // Per-layer ledger from the traced passes, per pass.
    const double n = static_cast<double>(traced.size());
    double traced_wall = 0.0, traced_sims = 0.0, generations = 0.0,
           feasible = 0.0;
    mc::SimBreakdown breakdown;
    for (const Pass& pass : traced) {
      traced_wall += pass.wall_s;
      traced_sims += static_cast<double>(pass.sims());
      for (const Call& c : pass.calls) {
        generations += c.generations;
        feasible += spec.optimize && c.feasible ? 1.0 : 0.0;
        breakdown += c.breakdown;
      }
    }
    const auto per_pass = [&](const char* registry_name) {
      double total = 0.0;
      for (const Pass& pass : traced) {
        total += delta(pass.before, pass.after, registry_name);
      }
      return total / n;
    };
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double flush_s = per_pass("sched.flush_us.sum") * 1e-6;
    const double busy_s = ledger.busy_s() / n;
    const double threads = spec.threads;
    const double sims_per_pass = traced_sims / n;
    const SolverProbes probes = probe_solvers(fixture);
    metrics = {
        {"circuits.sample_us.p50", percentile(ledger.sample_us(), 0.50), "us"},
        {"circuits.sample_us.p99", percentile(ledger.sample_us(), 0.99), "us"},
        {"circuits.busy_frac", ratio(busy_s, traced_wall / n * threads),
         "frac"},
        {"circuits.opens",
         static_cast<double>(ledger.open_us().size()) / n, "count"},
        {"circuits.open_us.p50", percentile(ledger.open_us(), 0.50), "us"},
        {"circuits.open_us.p99", percentile(ledger.open_us(), 0.99), "us"},
        {"mc.flush_s", flush_s, "s"},
        {"mc.flushes", per_pass("sched.flushes"), "count"},
        {"mc.worker_util", ratio(busy_s, flush_s * threads), "frac"},
        {"mc.cold_opens", per_pass("sched.cold_opens"), "count"},
        {"mc.warm_opens", per_pass("sched.warm_opens"), "count"},
        {"mc.session_hits", per_pass("sched.session_hits"), "count"},
        {"mc.steals", per_pass("sched.steals"), "count"},
        {"mc.sims.screen", static_cast<double>(breakdown.screen) / n, "count"},
        {"mc.sims.stage1", static_cast<double>(breakdown.stage1) / n, "count"},
        {"mc.sims.ocba", static_cast<double>(breakdown.ocba) / n, "count"},
        {"mc.sims.stage2", static_cast<double>(breakdown.stage2) / n, "count"},
        {"mc.sims.other", static_cast<double>(breakdown.other) / n, "count"},
        {"core.serial_s", traced_wall / n - flush_s, "s"},
        {"core.generations", generations / n, "count"},
        {"core.feasible_runs", feasible / n, "count"},
        {"spice.factors_per_sample",
         ratio(per_pass("solver.factors"), sims_per_pass), "count"},
        {"spice.solves_per_sample",
         ratio(per_pass("solver.solves"), sims_per_pass), "count"},
        {"spice.dc_solve_us", probes.dc_solve_us, "us"},
        {"spice.ac_probe_us", probes.ac_probe_us, "us"},
        {"spice.tran_run_us", probes.tran_run_us, "us"},
        {"spice.tran.steps_per_run",
         ratio(per_pass("tran.steps"), per_pass("tran.runs")), "count"},
        {"spice.tran.newton_per_step",
         ratio(per_pass("tran.newton_iterations"), per_pass("tran.steps")),
         "count"},
        {"linalg.batch_factors", per_pass("solver.batch_factors"), "count"},
        {"fail.sample_infeasible", per_pass("fail.sample_infeasible"),
         "count"},
        {"fail.sparse_to_dense", per_pass("fail.sparse_to_dense"), "count"},
        {"fail.lane_demotion", per_pass("fail.lane_demotion"), "count"},
        {"deck.parse_us", median(parse_us), "us"},
        {"obs.traced_over_plain",
         total_of(best_call_walls(traced)) / total_of(walls),
         "ratio"},
    };
    std::fprintf(stderr,
                 "perfbench: %zu traced passes; trace buffered %zu events, "
                 "dropped %zu\n",
                 traced.size(), obs::trace_event_count(),
                 obs::trace_dropped_count());
    if (obs::trace_dropped_count() != 0) {
      std::fprintf(stderr, "perfbench: a trace ring wrapped; the trace is "
                           "truncated\n");
      return 1;
    }
    if (!args.trace_out.empty() && !obs::write_trace(args.trace_out)) {
      return 1;
    }
  }
  std::printf("%s\n",
              result_json(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
