// Differential test of the fleet's dimension-templated lane kernels
// (src/fleet/lane_kernel.h) and the flat covariance projection against
// the KalmanFilter arithmetic they replicate. Every instantiated state
// dimension (N = 1..6, plus the runtime-n body N = 0) runs on random
// transitions with structural zeros and random symmetric P, Q, R; the
// results must match bit for bit (memcmp), since a lane stands in for a
// per-source filter pair under the fleet's equivalence contract.

#include "fleet/lane_kernel.h"

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/suppression.h"
#include "filter/kalman_filter.h"

namespace dkf {
namespace {

constexpr int kTrialsPerShape = 40;

/// A random entry that is an exact zero (of either sign) about a third of
/// the time, so every zero-skip branch of the kernels is exercised.
double SparseEntry(Rng& rng) {
  const double u = rng.Uniform();
  if (u < 0.25) return 0.0;
  if (u < 0.33) return -0.0;
  return rng.Gaussian(0.0, 1.5);
}

Matrix RandomSparse(Rng& rng, size_t rows, size_t cols) {
  Matrix out(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) out(r, c) = SparseEntry(rng);
  }
  return out;
}

/// Random symmetric matrix: a positive diagonal, structural zeros off it.
Matrix RandomSymmetric(Rng& rng, size_t n) {
  Matrix out(n, n);
  for (size_t r = 0; r < n; ++r) {
    out(r, r) = rng.Uniform(0.5, 4.0);
    for (size_t c = r + 1; c < n; ++c) {
      const double v = 0.3 * SparseEntry(rng);
      out(r, c) = v;
      out(c, r) = v;
    }
  }
  return out;
}

bool BitEqual(const double* a, const double* b, size_t count) {
  return std::memcmp(a, b, count * sizeof(double)) == 0;
}

KalmanFilterOptions RandomOptions(Rng& rng, size_t n, size_t m) {
  KalmanFilterOptions options;
  options.transition = RandomSparse(rng, n, n);
  options.measurement = RandomSparse(rng, m, n);
  options.process_noise = RandomSymmetric(rng, n);
  options.measurement_noise = RandomSymmetric(rng, m);
  options.initial_state = Vector(n);
  for (size_t i = 0; i < n; ++i) options.initial_state[i] = SparseEntry(rng);
  options.initial_covariance = RandomSymmetric(rng, n);
  return options;
}

/// The tracking-mode predict, the deviation test and the answer H x of
/// lane kernel N against one KalmanFilter::Predict.
template <size_t N>
void CheckTrackingPredict(const KalmanFilterOptions& options, Rng& rng) {
  const size_t n = options.initial_state.size();
  const size_t m = options.measurement.rows();
  KalmanFilter filter = KalmanFilter::Create(options).value();
  lane::Scratch<N> s(n);
  ASSERT_TRUE(lane::Predict<N>(n, options.transition.RowData(0),
                               options.process_noise.RowData(0),
                               options.initial_state.data(),
                               options.initial_covariance.RowData(0),
                               /*armed=*/false, &s));
  ASSERT_TRUE(filter.Predict().ok());
  EXPECT_TRUE(BitEqual(s.x(), filter.state().data(), n));
  EXPECT_TRUE(BitEqual(s.p2(), filter.covariance().RowData(0), n * n));

  const Vector predicted = filter.PredictedMeasurement();
  Vector answer(m);
  lane::MultiplyVector<N>(n, m, options.measurement.RowData(0), s.x(),
                          answer.data());
  EXPECT_TRUE(BitEqual(answer.data(), predicted.data(), m));

  Vector z(m);
  for (size_t i = 0; i < m; ++i) z[i] = predicted[i] + rng.Gaussian(0.0, 2.0);
  const double lane_deviation = lane::Deviation<N>(
      n, m, options.measurement.RowData(0), s.x(), z.data());
  const double filter_deviation =
      Deviation(predicted, z, DeviationNorm::kMaxAbs);
  EXPECT_TRUE(BitEqual(&lane_deviation, &filter_deviation, 1));
}

/// The armed (frozen-cycle) predict: x <- phi x only; the filter snaps P
/// to the frozen prior, which the lane defers.
template <size_t N>
void CheckArmedPredict(const KalmanFilterOptions& options, Rng& rng) {
  const size_t n = options.initial_state.size();
  KalmanFilter filter = KalmanFilter::Create(options).value();
  KalmanFilter::FullState armed = filter.ExportFullState();
  armed.ss_mode = 2;  // kArmed
  armed.phase = 2;    // kCorrected: the next Predict takes the fast path
  armed.ss_period = 2;
  armed.ss_idx = 1;
  for (int i = 0; i < 2; ++i) armed.ss_prior_p[i] = RandomSymmetric(rng, n);
  ASSERT_TRUE(filter.ImportFullState(armed).ok());

  lane::Scratch<N> s(n);
  ASSERT_TRUE(lane::Predict<N>(n, options.transition.RowData(0),
                               options.process_noise.RowData(0),
                               armed.x.data(), armed.p.RowData(0),
                               /*armed=*/true, &s));
  ASSERT_TRUE(filter.Predict().ok());
  EXPECT_TRUE(BitEqual(s.x(), filter.state().data(), n));
  EXPECT_EQ(filter.ExportFullState().ss_idx, 0);
}

/// The flat projection against ProjectCovariance and against the
/// filter's own innovation-covariance chain (S - R, symmetrized).
void CheckProjection(const KalmanFilterOptions& options) {
  const size_t n = options.initial_state.size();
  const size_t m = options.measurement.rows();
  const Matrix& p = options.initial_covariance;
  const Matrix& h = options.measurement;
  const Matrix& r = options.measurement_noise;
  Matrix flat(m, m);
  ProjectCovarianceInto(p.RowData(0), h.RowData(0), r.RowData(0), n, m,
                        flat.MutableRowData(0));
  const Matrix wrapped = ProjectCovariance(p, h, r);
  EXPECT_TRUE(BitEqual(flat.RowData(0), wrapped.RowData(0), m * m));

  const KalmanFilter filter = KalmanFilter::Create(options).value();
  Matrix chain = filter.InnovationCovariance();
  chain -= r;
  chain.Symmetrize();
  EXPECT_TRUE(BitEqual(flat.RowData(0), chain.RowData(0), m * m));
  const Matrix projected = filter.ProjectedCovariance();
  EXPECT_TRUE(BitEqual(flat.RowData(0), projected.RowData(0), m * m));
}

/// Every measurement width m <= n at state dimension n, on instantiation N.
template <size_t N>
void CheckDimension(size_t n) {
  Rng rng(0xF1EE7 + n);
  for (size_t m = 1; m <= n; ++m) {
    for (int trial = 0; trial < kTrialsPerShape; ++trial) {
      SCOPED_TRACE("N=" + std::to_string(N) + " n=" + std::to_string(n) +
                   " m=" + std::to_string(m) +
                   " trial=" + std::to_string(trial));
      const KalmanFilterOptions options = RandomOptions(rng, n, m);
      CheckTrackingPredict<N>(options, rng);
      CheckArmedPredict<N>(options, rng);
      CheckProjection(options);
    }
  }
}

TEST(FleetKernelTest, FixedDimensionsMatchKalmanFilter) {
  CheckDimension<1>(1);
  CheckDimension<2>(2);
  CheckDimension<3>(3);
  CheckDimension<4>(4);
  CheckDimension<5>(5);
  CheckDimension<6>(6);
}

TEST(FleetKernelTest, RuntimeDimensionMatchesKalmanFilter) {
  // N = 0 runs the same body at a runtime n: beyond the fixed
  // instantiations (the fleet's > 6-state models) and inside them.
  CheckDimension<0>(8);
  CheckDimension<0>(3);
}

TEST(FleetKernelTest, NonFinitePredictionIsReported) {
  Rng rng(7);
  KalmanFilterOptions options = RandomOptions(rng, 2, 1);
  options.transition(0, 0) = 1e300;
  options.transition(0, 1) = 1e300;
  options.initial_state = Vector{1e300, 1e300};
  lane::Scratch<2> s(2);
  EXPECT_FALSE(lane::Predict<2>(2, options.transition.RowData(0),
                                options.process_noise.RowData(0),
                                options.initial_state.data(),
                                options.initial_covariance.RowData(0),
                                /*armed=*/true, &s));
}

}  // namespace
}  // namespace dkf
