// Micro benchmark for the warm evaluation path: the EvalScheduler's
// per-worker session caches.
//
// The synthetic problem charges a large session-open cost (the nominal
// measurement stand-in) and a small per-sample cost, like the circuit
// problems.  Two workloads:
//
//   - eviction-heavy: candidates per worker == cache capacity at 8
//     workers.  Tasks go to whichever worker is free, so a candidate's
//     session can be rebuilt on several workers and the LRU caches evict.
//   - capacity-constrained: cache capacity below candidates per worker, so
//     every worker must evict; every eviction is reopened cold.
//
// The problem revisits every candidate every round, so evicted sessions
// are reopened over and over -- unlike MOHECO on the paper's Example 1,
// which screens each fresh candidate once and rarely revisits one after
// its session is evicted.
//
// Reports samples/sec, session opens and cache hits per workload and
// worker count.  Doubles as a correctness gate: tallies must be
// bit-identical across worker counts and cache capacities.
//
// Last, the observability-overhead gate: Monte-Carlo samples of the 5T OTA
// through a warm scheduler session (process apply, DC Newton, AC probes)
// with span tracing and timing histograms armed must run within 3% of the
// disarmed time.  The estimate is the median over repetitions of the
// armed/disarmed ratio measured back to back inside each repetition, so
// host frequency drift between repetitions cancels inside the pair; many
// short repetitions keep each pair inside one phase of a shared host's
// background load.  Violations exit non-zero so CI fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_support.hpp"
#include "src/circuits/circuit_yield.hpp"
#include "src/circuits/topology.hpp"
#include "src/common/parallel.hpp"
#include "src/common/table.hpp"
#include "src/mc/candidate_yield.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/stats/rng.hpp"

namespace {

using namespace moheco;

inline void keep(double& value) { asm volatile("" : "+m"(value)); }

void spin(int iterations) {
  double acc = 1.0;
  for (int k = 0; k < iterations; ++k) acc += acc * 1e-12 + 1e-9;
  keep(acc);
}

/// Quadratic-margin pass/fail with an expensive open() (the nominal
/// measurement stand-in) and a cheap evaluate().
class WarmPathProblem final : public mc::YieldProblem {
 public:
  WarmPathProblem(int open_spin, int eval_spin, double sigma)
      : open_spin_(open_spin), eval_spin_(eval_spin), sigma_(sigma) {}

  std::size_t num_design_vars() const override { return 1; }
  double lower_bound(std::size_t) const override { return -2.0; }
  double upper_bound(std::size_t) const override { return 2.0; }
  std::size_t noise_dim() const override { return 4; }

  class WarmSession final : public Session {
   public:
    WarmSession(const WarmPathProblem* parent, double x)
        : parent_(parent), margin_(1.0 - x * x) {
      spin(parent_->open_spin_);
    }

    mc::SampleResult evaluate(std::span<const double> xi) override {
      spin(parent_->eval_spin_);
      double w = 0.0;
      for (double z : xi) w += z;
      const double g = margin_ + parent_->sigma_ * 0.5 * w;
      mc::SampleResult r;
      r.pass = g >= 0.0;
      r.violation = r.pass ? 0.0 : -g;
      return r;
    }

   private:
    const WarmPathProblem* parent_;
    double margin_;
  };

  std::unique_ptr<Session> open(std::span<const double> x) const override {
    return std::make_unique<WarmSession>(this, x[0]);
  }

 private:
  int open_spin_;
  int eval_spin_;
  double sigma_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RunResult {
  double samples_per_sec = 0.0;
  long long session_opens = 0;
  long long session_hits = 0;
  std::vector<long long> passes;  ///< per-candidate tally (determinism key)
};

RunResult run_rounds(const mc::YieldProblem& problem, int num_candidates,
                     int rounds, int per_candidate, int workers,
                     const mc::SchedulerOptions& scheduler_options,
                     std::uint64_t seed) {
  ThreadPool pool(workers);
  mc::EvalScheduler scheduler(pool, scheduler_options);
  std::vector<std::unique_ptr<mc::CandidateYield>> candidates;
  candidates.reserve(static_cast<std::size_t>(num_candidates));
  for (int i = 0; i < num_candidates; ++i) {
    const double x = -1.5 + 3.0 * i / std::max(1, num_candidates - 1);
    candidates.push_back(std::make_unique<mc::CandidateYield>(
        problem, std::vector<double>{x},
        stats::derive_seed(seed, 0x3A9A, static_cast<std::uint64_t>(i))));
  }
  mc::SimCounter sims;
  const mc::McOptions mc_options;

  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (auto& c : candidates) {
      scheduler.enqueue(*c, per_candidate, mc_options);
    }
    scheduler.flush(sims, mc::SimPhase::kOcba);
  }
  const double elapsed = seconds_since(start);

  RunResult result;
  result.samples_per_sec = static_cast<double>(sims.total()) / elapsed;
  result.session_opens = scheduler.session_opens();
  result.session_hits = scheduler.session_hits();
  for (const auto& c : candidates) result.passes.push_back(c->passes());
  return result;
}

/// Median over `reps` repetitions of (armed time / disarmed time) for
/// `samples` 5T OTA Monte-Carlo samples on one warm scheduler session.
double observability_overhead(int samples, int reps, std::uint64_t seed) {
  const circuits::CircuitYieldProblem problem(
      circuits::make_five_transistor_ota());
  std::vector<double> x(problem.num_design_vars());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 * (problem.lower_bound(i) + problem.upper_bound(i));
  }
  ThreadPool pool(1);
  mc::EvalScheduler scheduler(pool);
  mc::CandidateYield tally(problem, x, seed);
  mc::SimCounter sims;
  const mc::McOptions mc_options;
  const auto timed_flush = [&] {
    const auto start = std::chrono::steady_clock::now();
    scheduler.enqueue(tally, samples, mc_options);
    scheduler.flush(sims, mc::SimPhase::kOther);
    return seconds_since(start);
  };
  const auto arm = [](bool on) {
    obs::set_timing_enabled(on);
    obs::set_trace_enabled(on);
  };
  timed_flush();  // opens the session: every timed flush runs warm
  std::vector<double> ratios;
  for (int rep = 0; rep < reps; ++rep) {
    arm(false);
    const double off_s = timed_flush();
    arm(true);
    const double on_s = timed_flush();
    ratios.push_back(on_s / off_s);
  }
  arm(false);
  obs::trace_reset();
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = bench::bench_prologue(
      argc, argv,
      "Micro: warm-path scheduler (session caches)");
  const bool smoke = options.scale == BenchScale::kSmoke;
  const int num_candidates = 64;
  const int open_spin = 40000;  // ~tens of us: nominal measurement stand-in
  const int eval_spin = 600;    // under a us: per-sample solve stand-in
  const WarmPathProblem problem(open_spin, eval_spin, 0.5);

  struct Scenario {
    const char* name;
    int sessions_per_worker;
  };
  const Scenario scenarios[] = {
      // candidates/worker == capacity at 8 workers.
      {"eviction-heavy (cap=8)", 8},
      // capacity below candidates/worker: every worker evicts.
      {"capacity-constrained (cap=4)", 4},
  };
  const std::vector<int> worker_counts =
      smoke ? std::vector<int>{2, 8} : std::vector<int>{1, 2, 4, 8};
  const int per_candidate = 2;
  const int rounds = smoke ? 12 : 30;

  Table table({"workload", "workers", "samp/s", "opens", "hits"});
  bool ok = true;
  std::string json_rows;
  std::vector<long long> reference_passes;
  for (const Scenario& scenario : scenarios) {
    for (int workers : worker_counts) {
      mc::SchedulerOptions scheduler_options;
      scheduler_options.sessions_per_worker = scenario.sessions_per_worker;
      const RunResult run = run_rounds(problem, num_candidates, rounds,
                                       per_candidate, workers,
                                       scheduler_options, options.seed);

      if (reference_passes.empty()) reference_passes = run.passes;
      if (run.passes != reference_passes) {
        std::fprintf(stderr,
                     "FAIL %s @%d workers: tallies depend on worker count or "
                     "cache capacity\n",
                     scenario.name, workers);
        ok = false;
      }
      char sps[32];
      std::snprintf(sps, sizeof(sps), "%.3g", run.samples_per_sec);
      table.add_row({scenario.name, std::to_string(workers), sps,
                     std::to_string(run.session_opens),
                     std::to_string(run.session_hits)});
      char row[512];
      std::snprintf(
          row, sizeof(row),
          "%s{\"workload\":\"%s\",\"workers\":%d,\"candidates\":%d,"
          "\"samples_per_sec\":%.1f,\"opens\":%lld,\"hits\":%lld}",
          json_rows.empty() ? "" : ",", scenario.name, workers, num_candidates,
          run.samples_per_sec, run.session_opens, run.session_hits);
      json_rows += row;
    }
  }
  table.print(std::cout, "EvalScheduler session caches (" +
                             std::to_string(num_candidates) + " candidates)");

  const double obs_overhead = observability_overhead(
      smoke ? 600 : 1500, smoke ? 15 : 21, options.seed);
  if (obs_overhead > 1.03) {
    std::fprintf(stderr,
                 "FAIL observability overhead %.4fx > 1.03x on the 5T OTA "
                 "sample path with tracing+timing armed\n",
                 obs_overhead);
    ok = false;
  }
  Table obs_table({"instrumentation", "overhead"});
  char ov[32];
  std::snprintf(ov, sizeof(ov), "%.4fx", obs_overhead);
  obs_table.add_row({"tracing + timing armed vs disarmed", ov});
  obs_table.print(std::cout, "Observability overhead, 5T OTA warm sample path");

  std::cout << "gates: identical tallies across workers and capacities, "
               "observability overhead <=1.03x ("
            << (obs_overhead <= 1.03 ? "ok" : "FAIL") << ")\n";

  char tail[64];
  std::snprintf(tail, sizeof(tail), ",\"obs_overhead\":%.4f", obs_overhead);
  if (!bench::write_bench_json(options.json, "bench_micro_warmpath",
                               "\"scenarios\":[" + json_rows + "]" + tail)) {
    return 1;
  }
  return ok ? 0 : 1;
}
