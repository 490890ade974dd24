// Scalar-vs-SIMD agreement sweep (ctest label `simd`). Every vectorized
// kernel must be bit-identical (0 ULP) to the scalar reference on
// identical inputs — swept across shapes that cover every vector-width
// remainder.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/observe.h"
#include "stats/kernels.h"
#include "stats/rng.h"

namespace {

using acbm::stats::Rng;
using acbm::stats::SimdIsa;

// Every test runs through this fixture so an ISA override can never leak
// into later tests (or other suites in this binary).
class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_isa_ = acbm::stats::active_isa(); }
  void TearDown() override { acbm::stats::set_active_isa(saved_isa_); }

 private:
  SimdIsa saved_isa_ = SimdIsa::kScalar;
};

std::vector<double> randn(std::size_t n, Rng& rng, double sd = 1.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, sd);
  return v;
}

std::vector<float> randn_f32(std::size_t n, Rng& rng, double sd = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, sd));
  return v;
}

// Output/input dims covering every remainder of the 4-wide f64 and 8-wide
// f32 output-lane vectorization, plus a couple of larger shapes.
constexpr std::size_t kOutDims[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 33};
constexpr std::size_t kInDims[] = {1, 2, 3, 5, 8, 13, 64};

TEST_F(SimdKernelsTest, ActiveIsaClampsToDetected) {
  const SimdIsa detected = acbm::stats::detected_isa();
  for (SimdIsa want : {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
    acbm::stats::set_active_isa(want);
    const SimdIsa got = acbm::stats::active_isa();
    if (want == SimdIsa::kScalar || want == detected) {
      EXPECT_EQ(got, want);
    } else {
      EXPECT_EQ(got, SimdIsa::kScalar)
          << "unsupported ISA request must clamp to scalar";
    }
  }
}

TEST_F(SimdKernelsTest, IsaNamesAreStable) {
  EXPECT_STREQ(acbm::stats::isa_name(SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(acbm::stats::isa_name(SimdIsa::kAvx2), "avx2");
  EXPECT_STREQ(acbm::stats::isa_name(SimdIsa::kNeon), "neon");
}

TEST_F(SimdKernelsTest, GemvBitIdenticalAcrossIsa) {
  const SimdIsa simd = acbm::stats::detected_isa();
  if (simd == SimdIsa::kScalar) GTEST_SKIP() << "no SIMD ISA on this build";
  Rng rng(101);
  for (std::size_t out_dim : kOutDims) {
    for (std::size_t in : kInDims) {
      const auto weights = randn(out_dim * in, rng);
      const auto bias = randn(out_dim, rng, 0.5);
      const auto x = randn(in, rng);

      std::vector<double> scalar(out_dim);
      std::vector<double> vec(out_dim);
      acbm::stats::set_active_isa(SimdIsa::kScalar);
      acbm::stats::gemv(weights, bias, x, scalar);
      acbm::stats::set_active_isa(simd);
      acbm::stats::gemv(weights, bias, x, vec);
      for (std::size_t o = 0; o < out_dim; ++o) {
        EXPECT_EQ(vec[o], scalar[o]) << out_dim << "x" << in << " lane " << o;
      }

      acbm::stats::set_active_isa(SimdIsa::kScalar);
      acbm::stats::gemv_tanh(weights, bias, x, scalar);
      acbm::stats::set_active_isa(simd);
      acbm::stats::gemv_tanh(weights, bias, x, vec);
      for (std::size_t o = 0; o < out_dim; ++o) {
        EXPECT_EQ(vec[o], scalar[o]) << out_dim << "x" << in << " lane " << o;
      }
    }
  }
}

TEST_F(SimdKernelsTest, GemmRowRangeBitIdenticalAcrossIsa) {
  const SimdIsa simd = acbm::stats::detected_isa();
  if (simd == SimdIsa::kScalar) GTEST_SKIP() << "no SIMD ISA on this build";
  Rng rng(202);
  // m x k x n shapes straddling the column-block width and its remainders.
  const std::size_t shapes[][3] = {{1, 1, 1},    {3, 5, 4},    {17, 13, 9},
                                   {32, 32, 32}, {40, 33, 65}, {7, 64, 31}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0];
    const std::size_t k = s[1];
    const std::size_t n = s[2];
    const auto a = randn(m * k, rng);
    const auto b = randn(k * n, rng);
    std::vector<double> scalar(m * n);
    std::vector<double> vec(m * n);
    acbm::stats::set_active_isa(SimdIsa::kScalar);
    acbm::stats::gemm_row_range(a.data(), b.data(), scalar.data(), 0, m, k, n);
    acbm::stats::set_active_isa(simd);
    acbm::stats::gemm_row_range(a.data(), b.data(), vec.data(), 0, m, k, n);
    for (std::size_t i = 0; i < m * n; ++i) {
      EXPECT_EQ(vec[i], scalar[i])
          << m << "x" << k << "x" << n << " at " << i;
    }
  }
}

TEST_F(SimdKernelsTest, FneRowUpdateBitIdenticalAcrossIsa) {
  const SimdIsa simd = acbm::stats::detected_isa();
  if (simd == SimdIsa::kScalar) GTEST_SKIP() << "no SIMD ISA on this build";
  Rng rng(303);
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}, std::size_t{7},
                        std::size_t{8}, std::size_t{12}, std::size_t{31}}) {
    const std::size_t n_rows = 16;
    const auto rows = randn(n_rows * k, rng);
    const auto y = randn(n_rows, rng, 2.0);

    std::vector<double> ata_scalar(k * k, 0.0), atb_scalar(k, 0.0);
    std::vector<double> ata_vec(k * k, 0.0), atb_vec(k, 0.0);
    for (std::size_t r = 0; r < n_rows; ++r) {
      acbm::stats::set_active_isa(SimdIsa::kScalar);
      acbm::stats::fne_row_update(ata_scalar.data(), atb_scalar.data(),
                                  rows.data() + r * k, y[r], k);
      acbm::stats::set_active_isa(simd);
      acbm::stats::fne_row_update(ata_vec.data(), atb_vec.data(),
                                  rows.data() + r * k, y[r], k);
    }
    for (std::size_t i = 0; i < k * k; ++i) {
      EXPECT_EQ(ata_vec[i], ata_scalar[i]) << "k=" << k << " ata[" << i << "]";
    }
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(atb_vec[i], atb_scalar[i]) << "k=" << k << " atb[" << i << "]";
    }
  }
}

TEST_F(SimdKernelsTest, GemvF32BitIdenticalAcrossIsa) {
  const SimdIsa simd = acbm::stats::detected_isa();
  if (simd == SimdIsa::kScalar) GTEST_SKIP() << "no SIMD ISA on this build";
  Rng rng(404);
  for (std::size_t out_dim : kOutDims) {
    for (std::size_t in : kInDims) {
      // Transposed (input-major) layout: wt[i * out_dim + o].
      const auto weights_t = randn_f32(in * out_dim, rng);
      const auto bias = randn_f32(out_dim, rng, 0.5);
      const auto x = randn_f32(in, rng);

      std::vector<float> scalar(out_dim);
      std::vector<float> vec(out_dim);
      acbm::stats::set_active_isa(SimdIsa::kScalar);
      acbm::stats::gemv_t_f32(weights_t, bias, x, scalar);
      acbm::stats::set_active_isa(simd);
      acbm::stats::gemv_t_f32(weights_t, bias, x, vec);
      for (std::size_t o = 0; o < out_dim; ++o) {
        EXPECT_EQ(vec[o], scalar[o]) << out_dim << "x" << in << " lane " << o;
      }

      acbm::stats::set_active_isa(SimdIsa::kScalar);
      acbm::stats::gemv_t_tanh_f32(weights_t, bias, x, scalar);
      acbm::stats::set_active_isa(simd);
      acbm::stats::gemv_t_tanh_f32(weights_t, bias, x, vec);
      for (std::size_t o = 0; o < out_dim; ++o) {
        EXPECT_EQ(vec[o], scalar[o]) << out_dim << "x" << in << " lane " << o;
      }
    }
  }
}

TEST_F(SimdKernelsTest, DispatchCountersBumpPerCall) {
  namespace observe = acbm::core::observe;
  auto& metrics = observe::Metrics::instance();
  const bool was_enabled = observe::enabled();
  observe::set_enabled(true);

  // Large enough to clear the minimum-row SIMD dispatch thresholds.
  std::vector<double> weights(16 * 16, 1.0), bias(16, 0.0), x(16, 1.0),
      out(16);

  const std::uint64_t scalar_before =
      metrics.counter_value("kernels.dispatch.scalar");
  acbm::stats::set_active_isa(SimdIsa::kScalar);
  acbm::stats::gemv(weights, bias, x, out);
  EXPECT_GE(metrics.counter_value("kernels.dispatch.scalar"),
            scalar_before + 1);

  const SimdIsa simd = acbm::stats::detected_isa();
  if (simd != SimdIsa::kScalar) {
    const std::string name =
        std::string("kernels.dispatch.") + acbm::stats::isa_name(simd);
    const std::uint64_t simd_before = metrics.counter_value(name);
    acbm::stats::set_active_isa(simd);
    acbm::stats::gemv(weights, bias, x, out);
    EXPECT_GE(metrics.counter_value(name), simd_before + 1);
  }

  observe::set_enabled(was_enabled);
}

}  // namespace
