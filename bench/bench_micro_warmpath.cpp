// Micro benchmark for the warm evaluation path: the EvalScheduler's sticky
// candidate->worker affinity plus its warm-start blob store, measured with
// the blob store on and off on identical work.
//
// The synthetic problem charges a large session-open cost (the nominal
// measurement stand-in) and a small per-sample cost, like the circuit
// problems.  Two workloads:
//
//   - eviction-heavy: candidates per worker == cache capacity at 8
//     workers.  Sticky affinity pins each candidate to one worker, so the
//     LRU caches stop thrashing when workers run concurrently; whatever
//     still gets evicted (an oversubscribed host serializes the workers and
//     stealing moves candidates) is revived from the blob store.
//   - capacity-constrained: cache capacity below candidates per worker, so
//     every worker must evict.  The warm-start blob store turns those
//     rebuilds into cheap revivals.
//
// Reports samples/sec, session opens (cold and warm) and affinity counts
// per workload and worker count.  Doubles as a correctness gate: tallies
// must be bit-identical across worker counts, cache capacities, and blobs
// on/off.
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
/// measurement stand-in) and a cheap evaluate(), plus warm-start support:
/// a valid blob skips the open cost, as the circuit problems skip their
/// nominal DC+AC measurement.
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
    WarmSession(const WarmPathProblem* parent, double x, bool from_blob)
        : parent_(parent), x_(x), margin_(1.0 - x * x) {
      if (!from_blob) spin(parent_->open_spin_);
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

    std::vector<double> warm_start_blob() const override {
      return {1.0, x_, margin_};
    }

   private:
    const WarmPathProblem* parent_;
    double x_;
    double margin_;
  };

  std::unique_ptr<Session> open(std::span<const double> x) const override {
    return std::make_unique<WarmSession>(this, x[0], /*from_blob=*/false);
  }

  std::unique_ptr<Session> open_warm(
      std::span<const double> x,
      std::span<const double> blob) const override {
    // Validate like the circuit problems: version + exact design match.
    if (blob.size() == 3 && blob[0] == 1.0 && blob[1] == x[0]) {
      return std::make_unique<WarmSession>(this, x[0], /*from_blob=*/true);
    }
    return open(x);
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
  long long warm_opens = 0;
  long long affinity_hits = 0;
  long long steals = 0;
  long long migrations = 0;
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
  result.warm_opens = scheduler.warm_opens();
  result.affinity_hits = scheduler.affinity_hits();
  result.steals = scheduler.steals();
  result.migrations = scheduler.migrations();
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
      "Micro: warm-path scheduler (sticky affinity + warm-start blobs)");
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
      // candidates/worker == capacity at 8 workers: sticky -> no evictions.
      {"eviction-heavy (cap=8)", 8},
      // capacity below candidates/worker: warm-start revivals carry it.
      {"capacity-constrained (cap=4)", 4},
  };
  const std::vector<int> worker_counts =
      smoke ? std::vector<int>{2, 8} : std::vector<int>{1, 2, 4, 8};
  const int per_candidate = 2;
  const int rounds = smoke ? 12 : 30;

  Table table({"workload", "workers", "no-blob samp/s", "warm samp/s",
               "opens no-blob", "opens warm", "cold opens", "warm share",
               "steals"});
  bool ok = true;
  std::string json_rows;
  std::vector<long long> reference_passes;
  for (const Scenario& scenario : scenarios) {
    for (int workers : worker_counts) {
      mc::SchedulerOptions cold_only;
      cold_only.sessions_per_worker = scenario.sessions_per_worker;
      cold_only.warm_start_blobs = 0;
      mc::SchedulerOptions warm;
      warm.sessions_per_worker = scenario.sessions_per_worker;

      const RunResult cold = run_rounds(problem, num_candidates, rounds,
                                        per_candidate, workers, cold_only,
                                        options.seed);
      const RunResult opt = run_rounds(problem, num_candidates, rounds,
                                       per_candidate, workers, warm,
                                       options.seed);

      if (reference_passes.empty()) reference_passes = opt.passes;
      if (cold.passes != opt.passes) {
        std::fprintf(stderr,
                     "FAIL %s @%d workers: tallies depend on the warm-start "
                     "blob store\n",
                     scenario.name, workers);
        ok = false;
      }
      if (opt.passes != reference_passes) {
        std::fprintf(stderr,
                     "FAIL %s @%d workers: tallies depend on worker count or "
                     "cache capacity\n",
                     scenario.name, workers);
        ok = false;
      }
      const long long opt_cold = opt.session_opens - opt.warm_opens;
      const double warm_share =
          opt.session_opens > 0
              ? static_cast<double>(opt.warm_opens) /
                    static_cast<double>(opt.session_opens)
              : 0.0;
      char cs[32], ws_sps[32], ws[32];
      std::snprintf(cs, sizeof(cs), "%.3g", cold.samples_per_sec);
      std::snprintf(ws_sps, sizeof(ws_sps), "%.3g", opt.samples_per_sec);
      std::snprintf(ws, sizeof(ws), "%.0f%%", 100.0 * warm_share);
      table.add_row({scenario.name, std::to_string(workers), cs, ws_sps,
                     std::to_string(cold.session_opens),
                     std::to_string(opt.session_opens),
                     std::to_string(opt_cold), ws,
                     std::to_string(opt.steals)});
      char row[512];
      std::snprintf(
          row, sizeof(row),
          "%s{\"workload\":\"%s\",\"workers\":%d,\"candidates\":%d,"
          "\"no_blob_sps\":%.1f,\"warm_sps\":%.1f,"
          "\"no_blob_opens\":%lld,\"warm_path_opens\":%lld,"
          "\"cold_opens\":%lld,"
          "\"warm_opens\":%lld,\"affinity_hits\":%lld,\"steals\":%lld,"
          "\"migrations\":%lld}",
          json_rows.empty() ? "" : ",", scenario.name, workers, num_candidates,
          cold.samples_per_sec, opt.samples_per_sec, cold.session_opens,
          opt.session_opens, opt_cold, opt.warm_opens, opt.affinity_hits,
          opt.steals, opt.migrations);
      json_rows += row;
    }
  }
  table.print(std::cout,
              "EvalScheduler, warm-start blobs off vs on (" +
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

  std::cout << "gates: identical tallies across workers, capacities and "
               "blobs on/off, observability overhead <=1.03x ("
            << (obs_overhead <= 1.03 ? "ok" : "FAIL") << ")\n";

  char tail[64];
  std::snprintf(tail, sizeof(tail), ",\"obs_overhead\":%.4f", obs_overhead);
  if (!bench::write_bench_json(options.json, "bench_micro_warmpath",
                               "\"scenarios\":[" + json_rows + "]" + tail)) {
    return 1;
  }
  return ok ? 0 : 1;
}
