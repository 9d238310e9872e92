#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/stats/distributions.hpp"
#include "src/stats/rng.hpp"
#include "src/stats/samplers.hpp"
#include "src/stats/summary.hpp"

namespace moheco::stats {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  EXPECT_EQ(a(), b());
  Rng a2(123);
  EXPECT_NE(a2(), c());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng rng(11);
  std::vector<int> hist(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++hist[rng.below(7)];
  for (int count : hist) {
    EXPECT_NEAR(count, n / 7, 500);  // ~5 sigma
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  Welford w;
  for (int i = 0; i < 200000; ++i) w.add(rng.normal());
  EXPECT_NEAR(w.mean(), 0.0, 0.01);
  EXPECT_NEAR(w.variance(), 1.0, 0.02);
}

TEST(Rng, DeriveSeedSeparatesStreams) {
  const std::uint64_t s1 = derive_seed(42, 1, 2, 3);
  const std::uint64_t s2 = derive_seed(42, 1, 2, 4);
  const std::uint64_t s3 = derive_seed(42, 1, 3, 3);
  const std::uint64_t s1b = derive_seed(42, 1, 2, 3);
  EXPECT_EQ(s1, s1b);
  EXPECT_NE(s1, s2);
  EXPECT_NE(s1, s3);
}

TEST(Distributions, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963984540054), 0.025, 1e-9);
}

TEST(Distributions, QuantileInvertsCdf) {
  for (double p : {1e-8, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.9, 0.999, 1 - 1e-9}) {
    const double x = normal_quantile(p);
    EXPECT_NEAR(normal_cdf(x), p, 1e-10) << "p=" << p;
  }
}

TEST(Distributions, QuantileRejectsEndpoints) {
  EXPECT_THROW(normal_quantile(0.0), moheco::InvalidArgument);
  EXPECT_THROW(normal_quantile(1.0), moheco::InvalidArgument);
}

TEST(Distributions, WilsonIntervalCoversPointEstimate) {
  const Interval ci = wilson_interval(80, 100, 1.96);
  EXPECT_LT(ci.lo, 0.8);
  EXPECT_GT(ci.hi, 0.8);
  EXPECT_GT(ci.lo, 0.7);
  EXPECT_LT(ci.hi, 0.9);
  const Interval all = wilson_interval(100, 100, 1.96);
  EXPECT_EQ(all.hi, 1.0);  // brackets p = 1 exactly, despite rounding
  EXPECT_LT(all.lo, 1.0);
  const Interval none = wilson_interval(0, 100, 1.96);
  EXPECT_EQ(none.lo, 0.0);
  EXPECT_GT(none.hi, 0.0);
}

TEST(Samplers, PmcRowIndependentOfBatchSize) {
  // Row i must not change when the batch grows (incremental estimation).
  const auto small = sample_standard_normal(SamplingMethod::kPMC, 4, 6, 99);
  const auto large = sample_standard_normal(SamplingMethod::kPMC, 16, 6, 99);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t d = 0; d < 6; ++d) {
      EXPECT_EQ(small(i, d), large(i, d));
    }
  }
}

TEST(Samplers, LhsStratifiesEveryColumn) {
  const std::size_t n = 64;
  const auto batch = sample_standard_normal(SamplingMethod::kLHS, n, 5, 7);
  // Map each value back to a stratum via the normal CDF; every stratum must
  // contain exactly one sample per column.
  for (std::size_t d = 0; d < 5; ++d) {
    std::vector<int> strata(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = normal_cdf(batch(i, d));
      const auto k = static_cast<std::size_t>(u * static_cast<double>(n));
      ASSERT_LT(k, n);
      ++strata[k];
    }
    for (int count : strata) EXPECT_EQ(count, 1);
  }
}

TEST(Samplers, LhsMeanVarianceCloseToStandardNormal) {
  const std::size_t n = 1024;
  const auto batch = sample_standard_normal(SamplingMethod::kLHS, n, 2, 13);
  Welford w;
  for (std::size_t i = 0; i < n; ++i) w.add(batch(i, 0));
  EXPECT_NEAR(w.mean(), 0.0, 0.01);
  EXPECT_NEAR(w.variance(), 1.0, 0.05);
}

TEST(Samplers, LhsVarianceReductionOnMean) {
  // Estimating E[z] with LHS has (much) lower variance than PMC.
  const std::size_t n = 64;
  Welford pmc_means, lhs_means;
  for (std::uint64_t rep = 0; rep < 200; ++rep) {
    double sp = 0.0, sl = 0.0;
    const auto p = sample_standard_normal(SamplingMethod::kPMC, n, 1, 1000 + rep);
    const auto l = sample_standard_normal(SamplingMethod::kLHS, n, 1, 2000 + rep);
    for (std::size_t i = 0; i < n; ++i) {
      sp += p(i, 0);
      sl += l(i, 0);
    }
    pmc_means.add(sp / static_cast<double>(n));
    lhs_means.add(sl / static_cast<double>(n));
  }
  EXPECT_LT(lhs_means.variance(), 0.1 * pmc_means.variance());
}

TEST(Samplers, ParseRoundTrip) {
  EXPECT_EQ(parse_sampling_method("lhs"), SamplingMethod::kLHS);
  EXPECT_EQ(parse_sampling_method("PMC"), SamplingMethod::kPMC);
  EXPECT_THROW(parse_sampling_method("sobol"), moheco::InvalidArgument);
}

TEST(Summary, WelfordMatchesBatch) {
  const std::vector<double> values = {1.0, 2.5, -0.5, 4.0, 3.0};
  Welford w;
  for (double v : values) w.add(v);
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.mean, w.mean());
  EXPECT_DOUBLE_EQ(s.variance, w.variance());
  EXPECT_DOUBLE_EQ(s.best, -0.5);
  EXPECT_DOUBLE_EQ(s.worst, 4.0);
}

TEST(Summary, SingleValueHasZeroVariance) {
  const Summary s = summarize({3.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
}

}  // namespace
}  // namespace moheco::stats
