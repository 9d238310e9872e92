#include "src/mc/candidate_yield.hpp"

#include <atomic>

#include "src/common/error.hpp"
#include "src/mc/eval_scheduler.hpp"
#include "src/stats/rng.hpp"

namespace moheco::mc {
namespace {

std::uint64_t next_candidate_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

CandidateYield::CandidateYield(const YieldProblem& problem,
                               std::vector<double> x,
                               std::uint64_t stream_seed)
    : problem_(&problem),
      x_(std::move(x)),
      stream_seed_(stream_seed),
      id_(next_candidate_id()) {
  require(x_.size() == problem.num_design_vars(),
          "CandidateYield: design vector size mismatch");
}

void CandidateYield::record_nominal(const SampleResult& result,
                                    SimCounter& sims) {
  if (screened_) return;
  nominal_ = result;
  screened_ = true;
  sims.add(1, SimPhase::kScreen);
}

linalg::MatrixD CandidateYield::next_batch(long long count,
                                           const McOptions& options) {
  require(count > 0, "CandidateYield: batch size must be positive");
  // Batch seed depends on the batch index so incremental refinement draws
  // fresh strata each round.
  const std::uint64_t batch_seed =
      stats::derive_seed(stream_seed_, 0xBA7C4, ++batches_);
  return stats::sample_standard_normal(options.sampling,
                                       static_cast<std::size_t>(count),
                                       problem_->noise_dim(), batch_seed);
}

void CandidateYield::record(long long samples, long long passes) {
  require(samples >= 0 && passes >= 0 && passes <= samples,
          "CandidateYield: invalid tally record");
  samples_ += samples;
  passes_ += passes;
}

double CandidateYield::mean() const {
  if (samples_ == 0) return 0.0;
  return static_cast<double>(passes_) / static_cast<double>(samples_);
}

double CandidateYield::smoothed_variance() const {
  const double n = static_cast<double>(samples_);
  const double p = (static_cast<double>(passes_) + 1.0) / (n + 2.0);
  return p * (1.0 - p);
}

double reference_yield(const YieldProblem& problem, std::span<const double> x,
                       long long count, std::uint64_t seed, ThreadPool& pool,
                       stats::SamplingMethod sampling) {
  EvalScheduler scheduler(pool);
  return reference_yield(problem, x, count, seed, scheduler, sampling);
}

double reference_yield(const YieldProblem& problem, std::span<const double> x,
                       long long count, std::uint64_t seed,
                       EvalScheduler& scheduler, stats::SamplingMethod sampling,
                       SimCounter* sims) {
  require(count > 0, "reference_yield: count must be positive");
  require(!scheduler.has_pending(),
          "reference_yield: scheduler has deferred jobs; flush them first");
  const std::size_t dim = problem.noise_dim();
  // The stream is keyed by `seed` alone (not a candidate stream), so the
  // estimate is unchanged from the pre-scheduler implementation.
  linalg::MatrixD samples = stats::sample_standard_normal(
      sampling, static_cast<std::size_t>(count), dim, seed);
  CandidateYield tally(problem, std::vector<double>(x.begin(), x.end()),
                       seed);
  SimCounter local;
  scheduler.enqueue_samples(tally, std::move(samples));
  scheduler.flush(sims != nullptr ? *sims : local);
  return tally.mean();
}

}  // namespace moheco::mc
