// Unit + property tests for the FFT module: round trips, known transforms,
// Parseval, linearity, the convolution theorem and band-limited transforms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "fft/fft.h"
#include "kernels/kernels.h"

namespace ldmo::fft {
namespace {

TEST(FftUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(2), 2);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(129), 256);
  EXPECT_THROW(next_pow2(0), ldmo::Error);
}

TEST(FftUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(FftPlan, RejectsNonPow2) { EXPECT_THROW(FftPlan(12), ldmo::Error); }

TEST(FftPlan, DeltaTransformsToConstant) {
  FftPlan plan(8);
  std::vector<Complex> data(8, Complex(0, 0));
  data[0] = Complex(1, 0);
  plan.forward(data.data());
  for (const Complex& c : data) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(FftPlan, ConstantTransformsToScaledDelta) {
  FftPlan plan(8);
  std::vector<Complex> data(8, Complex(1, 0));
  plan.forward(data.data());
  EXPECT_NEAR(data[0].real(), 8.0, 1e-12);
  for (int i = 1; i < 8; ++i) EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-12);
}

TEST(FftPlan, SingleToneLandsInOneBin) {
  const int n = 32;
  FftPlan plan(n);
  std::vector<Complex> data(n);
  const int k = 5;
  for (int i = 0; i < n; ++i) {
    const double angle = 2.0 * M_PI * k * i / n;
    data[i] = Complex(std::cos(angle), std::sin(angle));
  }
  plan.forward(data.data());
  for (int i = 0; i < n; ++i) {
    if (i == k)
      EXPECT_NEAR(data[i].real(), n, 1e-9);
    else
      EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-9);
  }
}

TEST(FftPlan, RoundTripIsIdentity) {
  Rng rng(13);
  FftPlan plan(64);
  std::vector<Complex> data(64), original(64);
  for (int i = 0; i < 64; ++i)
    data[i] = original[i] = Complex(rng.normal(), rng.normal());
  plan.forward(data.data());
  plan.inverse(data.data());
  for (int i = 0; i < 64; ++i)
    EXPECT_NEAR(std::abs(data[i] - original[i]), 0.0, 1e-10);
}

TEST(FftPlan, ParsevalHolds) {
  Rng rng(21);
  const int n = 128;
  FftPlan plan(n);
  std::vector<Complex> data(n);
  double time_energy = 0.0;
  for (int i = 0; i < n; ++i) {
    data[i] = Complex(rng.normal(), rng.normal());
    time_energy += std::norm(data[i]);
  }
  plan.forward(data.data());
  double freq_energy = 0.0;
  for (const Complex& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-8 * time_energy);
}

TEST(FftPlan, Linearity) {
  Rng rng(5);
  const int n = 32;
  FftPlan plan(n);
  std::vector<Complex> a(n), b(n), sum(n);
  for (int i = 0; i < n; ++i) {
    a[i] = Complex(rng.normal(), rng.normal());
    b[i] = Complex(rng.normal(), rng.normal());
    sum[i] = a[i] + 2.0 * b[i];
  }
  plan.forward(a.data());
  plan.forward(b.data());
  plan.forward(sum.data());
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(sum[i] - (a[i] + 2.0 * b[i])), 0.0, 1e-9);
}

TEST(Fft2D, RoundTripIsIdentity) {
  Rng rng(31);
  Fft2DPlan plan(16, 32);
  GridC grid(16, 32);
  GridC original(16, 32);
  for (std::size_t i = 0; i < grid.size(); ++i)
    grid[i] = original[i] = Complex(rng.normal(), rng.normal());
  plan.forward(grid);
  plan.inverse(grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_NEAR(std::abs(grid[i] - original[i]), 0.0, 1e-10);
}

TEST(Fft2D, ShapeMismatchThrows) {
  Fft2DPlan plan(8, 8);
  GridC wrong(8, 16);
  EXPECT_THROW(plan.forward(wrong), ldmo::Error);
}

TEST(Fft2D, DcBinEqualsSum) {
  Fft2DPlan plan(8, 8);
  GridC grid(8, 8);
  double sum = 0.0;
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      grid.at(y, x) = Complex(y + 0.5 * x, 0);
      sum += y + 0.5 * x;
    }
  plan.forward(grid);
  EXPECT_NEAR(grid.at(0, 0).real(), sum, 1e-9);
}

// Convolution theorem: circular convolution via FFT equals direct circular
// convolution. This is the exact operation the litho simulator relies on.
TEST(Fft2D, ConvolutionTheorem) {
  Rng rng(77);
  const int n = 16;
  Fft2DPlan plan(n, n);
  GridF a(n, n), b(n, n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.uniform();
    b[i] = rng.uniform();
  }
  // Direct circular convolution.
  GridF direct(n, n, 0.0);
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      double acc = 0.0;
      for (int v = 0; v < n; ++v)
        for (int u = 0; u < n; ++u)
          acc += a.at(v, u) * b.at((y - v + n) % n, (x - u + n) % n);
      direct.at(y, x) = acc;
    }
  // FFT path.
  GridC fa = to_complex(a);
  GridC fb = to_complex(b);
  plan.forward(fa);
  plan.forward(fb);
  multiply_inplace(fa, fb);
  plan.inverse(fa);
  const GridF via_fft = real_part(fa);
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      EXPECT_NEAR(via_fft.at(y, x), direct.at(y, x), 1e-8);
}

TEST(Fft2D, MultiplyConjMatchesManual) {
  GridC a(1, 2), b(1, 2);
  a.at(0, 0) = Complex(1, 2);
  a.at(0, 1) = Complex(3, -1);
  b.at(0, 0) = Complex(2, 1);
  b.at(0, 1) = Complex(0, 1);
  multiply_conj_inplace(a, b);
  EXPECT_NEAR(std::abs(a.at(0, 0) - Complex(1, 2) * Complex(2, -1)), 0, 1e-12);
  EXPECT_NEAR(std::abs(a.at(0, 1) - Complex(3, -1) * Complex(0, -1)), 0,
              1e-12);
}

TEST(Fft2D, RealPartAndToComplexRoundTrip) {
  GridF g(2, 2);
  g.at(0, 0) = 1.5;
  g.at(1, 1) = -2.5;
  EXPECT_EQ(real_part(to_complex(g)), g);
}

// Parameterized round-trip across all the grid sizes the framework uses.
class FftSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(FftSizeSweep, RoundTrip) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  Fft2DPlan plan(n, n);
  GridC grid(n, n), original(n, n);
  for (std::size_t i = 0; i < grid.size(); ++i)
    grid[i] = original[i] = Complex(rng.normal(), rng.normal());
  plan.forward(grid);
  plan.inverse(grid);
  double max_err = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i)
    max_err = std::max(max_err, std::abs(grid[i] - original[i]));
  EXPECT_LT(max_err, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256));

TEST(FftPlanCache, PlanForReturnsOneSharedPlanPerShape) {
  const Fft2DPlan& a = plan_for(32, 16);
  const Fft2DPlan& b = plan_for(32, 16);
  const Fft2DPlan& c = plan_for(16, 32);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.height(), 32);
  EXPECT_EQ(a.width(), 16);
}

TEST(FftOutParam, ToComplexAndRealPartRoundTrip) {
  GridF real(5, 3);
  for (std::size_t i = 0; i < real.size(); ++i)
    real[i] = static_cast<double>(i) - 6.5;
  GridC complex_out;
  to_complex(real, complex_out);
  ASSERT_EQ(complex_out.height(), real.height());
  ASSERT_EQ(complex_out.width(), real.width());
  GridF back;
  real_part(complex_out, back);
  for (std::size_t i = 0; i < real.size(); ++i) {
    EXPECT_EQ(back[i], real[i]);
    EXPECT_EQ(complex_out[i].imag(), 0.0);
  }
}

// True if bin (v, u) of an n x n spectrum lies in the band box.
bool in_band(int n, int band, int v, int u) {
  return std::min(v, n - v) <= band && std::min(u, n - u) <= band;
}

TEST(Fft2D, BandTransformsMatchFullTransforms) {
  // A band only skips row FFTs of zero rows (inverse) and column FFTs of
  // bins nobody reads (forward), so every specified bin must equal the
  // full transform exactly, on every backend the host can run.
  struct BackendGuard {
    kernels::Backend saved = kernels::active();
    ~BackendGuard() { kernels::select(saved); }
  } guard;
  for (kernels::Backend backend :
       {kernels::Backend::kGeneric, kernels::Backend::kAvx2,
        kernels::Backend::kAvx512, kernels::Backend::kNeon}) {
    if (!kernels::supported(backend)) continue;
    kernels::select(backend);
    for (int n : {16, 64, 128}) {
      const Fft2DPlan& plan = plan_for(n, n);
      for (int band : {0, 3, 6, n / 2, kFullBand}) {
        SCOPED_TRACE(std::string(kernels::to_string(backend)) + " n=" +
                     std::to_string(n) + " band=" + std::to_string(band));
        Rng rng(static_cast<std::uint64_t>(n * 131 + band % 1000));
        GridC limited(n, n, Complex(0.0, 0.0));
        GridC dense(n, n);
        GridF real(n, n);
        for (int v = 0; v < n; ++v)
          for (int u = 0; u < n; ++u) {
            if (in_band(n, band, v, u))
              limited.at(v, u) = Complex(rng.normal(), rng.normal());
            dense.at(v, u) = Complex(rng.normal(), rng.normal());
            real.at(v, u) = rng.uniform();
          }

        GridC inv_full = limited, inv_band = limited;
        plan.inverse(inv_full);
        plan.inverse(inv_band, band);
        for (std::size_t i = 0; i < inv_full.size(); ++i)
          ASSERT_EQ(inv_band[i], inv_full[i]) << "inverse, bin " << i;

        GridC fwd_full = dense, fwd_band = dense;
        plan.forward(fwd_full);
        plan.forward(fwd_band, band);
        GridC real_full, real_band;
        plan.forward_real(real, real_full);
        plan.forward_real(real, real_band, band);
        for (int v = 0; v < n; ++v)
          for (int u = 0; u < n; ++u) {
            if (!in_band(n, band, v, u)) continue;
            ASSERT_EQ(fwd_band.at(v, u), fwd_full.at(v, u))
                << "forward, bin (" << v << ", " << u << ")";
            ASSERT_EQ(real_band.at(v, u), real_full.at(v, u))
                << "forward_real, bin (" << v << ", " << u << ")";
          }
      }
    }
  }
}

TEST(FftRawPointer, MatchesGridTransform) {
  Rng rng(7);
  const int n = 8;
  Fft2DPlan plan(n, n);
  GridC grid(n, n);
  for (std::size_t i = 0; i < grid.size(); ++i)
    grid[i] = Complex(rng.normal(), rng.normal());
  std::vector<Complex> raw(grid.data(), grid.data() + grid.size());
  plan.forward(grid);
  plan.forward(raw.data());
  for (std::size_t i = 0; i < grid.size(); ++i) EXPECT_EQ(raw[i], grid[i]);
}

}  // namespace
}  // namespace ldmo::fft
