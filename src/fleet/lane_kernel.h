#ifndef DKF_FLEET_LANE_KERNEL_H_
#define DKF_FLEET_LANE_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace dkf::lane {

// The lane kernels of the batched fleet (docs/fleet.md), templated on the
// state dimension N. The fleet instantiates N = 1..6, which run at a
// compile-time n, so the loops unroll and the scratch lives on the stack;
// N = 0 runs the same body on a runtime n (larger models). Every
// instantiation performs the same floating-point operations in the same
// order as the KalmanFilter kernels it replicates (linalg/kernels.h),
// including their zero-skip structure, so a lane stays bit-identical to
// the per-source filter at every N.

/// The state dimension instantiation N runs at.
template <size_t N>
constexpr size_t Dim(size_t runtime_n) {
  return N > 0 ? N : runtime_n;
}

/// Scratch for one predict: sx = phi x, sp1 = phi P, sp2 = the predicted
/// covariance. Inline arrays for a fixed N.
template <size_t N>
class Scratch {
 public:
  explicit Scratch(size_t /*n*/) {}
  double* x() { return x_; }
  double* p1() { return p1_; }
  double* p2() { return p2_; }
  const double* x() const { return x_; }
  const double* p2() const { return p2_; }

 private:
  double x_[N] = {};
  double p1_[N * N] = {};
  double p2_[N * N] = {};
};

/// Runtime-n scratch: one block sized when a group's tick starts.
template <>
class Scratch<0> {
 public:
  explicit Scratch(size_t n) : n_(n), buf_(n + 2 * n * n, 0.0) {}
  double* x() { return buf_.data(); }
  double* p1() { return buf_.data() + n_; }
  double* p2() { return buf_.data() + n_ + n_ * n_; }
  const double* x() const { return buf_.data(); }
  const double* p2() const { return buf_.data() + n_ + n_ * n_; }

 private:
  size_t n_;
  std::vector<double> buf_;
};

/// out = a x for row-major `a` (rows x n): MultiplyInto(Matrix, Vector)
/// and Matrix::operator*(Vector) — plain ascending sums, no zero-skip.
template <size_t N>
void MultiplyVector(size_t runtime_n, size_t rows, const double* a,
                    const double* x, double* out) {
  const size_t n = Dim<N>(runtime_n);
  for (size_t r = 0; r < rows; ++r) {
    const double* a_row = a + r * n;
    double sum = 0.0;
    for (size_t c = 0; c < n; ++c) sum += a_row[c] * x[c];
    out[r] = sum;
  }
}

/// KalmanFilter::Predict on one lane, into `s`: s.x = phi x
/// (MultiplyInto(Matrix, Vector): plain ascending sums) and, unless
/// `armed` (the frozen cycle needs no covariance arithmetic),
/// s.p2 = Symmetrize(phi P phi^T + 1.0 Q). Commits nothing; false when
/// the prediction is non-finite. `phi`, `p`, `q` are row-major n x n.
template <size_t N>
bool Predict(size_t runtime_n, const double* phi, const double* q,
             const double* x, const double* p, bool armed, Scratch<N>* s) {
  const size_t n = Dim<N>(runtime_n);
  double* sx = s->x();
  MultiplyVector<N>(n, n, phi, x, sx);
  bool finite = true;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(sx[i])) finite = false;
  }
  if (armed) return finite;
  // sp1 = phi P (MultiplyInto: skip zero phi entries, accumulate rows).
  double* sp1 = s->p1();
  double* sp2 = s->p2();
  for (size_t i = 0; i < n * n; ++i) sp1[i] = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const double* phi_row = phi + r * n;
    double* out_row = sp1 + r * n;
    for (size_t k = 0; k < n; ++k) {
      const double av = phi_row[k];
      if (av == 0.0) continue;
      const double* p_row = p + k * n;
      for (size_t c = 0; c < n; ++c) out_row[c] += av * p_row[c];
    }
  }
  // sp2 = sp1 phi^T (MultiplyTransposedInto: skip zero sp1 entries), then
  // + 1.0 Q (AddScaledInto).
  for (size_t r = 0; r < n; ++r) {
    const double* a_row = sp1 + r * n;
    double* out_row = sp2 + r * n;
    for (size_t c = 0; c < n; ++c) {
      const double* b_row = phi + c * n;
      double sum = 0.0;
      for (size_t k = 0; k < n; ++k) {
        const double av = a_row[k];
        if (av == 0.0) continue;
        sum += av * b_row[k];
      }
      out_row[c] = sum + 1.0 * q[r * n + c];
    }
  }
  // Matrix::Symmetrize.
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = r + 1; c < n; ++c) {
      const double avg = 0.5 * (sp2[r * n + c] + sp2[c * n + r]);
      sp2[r * n + c] = avg;
      sp2[c * n + r] = avg;
    }
  }
  for (size_t i = 0; i < n * n; ++i) {
    if (!std::isfinite(sp2[i])) finite = false;
  }
  return finite;
}

/// Deviation(H sx, z, kMaxAbs): the max-abs gap between the predicted
/// measurement and the reading `z` (m entries). `h` is row-major m x n.
template <size_t N>
double Deviation(size_t runtime_n, size_t m, const double* h,
                 const double* sx, const double* z) {
  const size_t n = Dim<N>(runtime_n);
  double deviation = 0.0;
  for (size_t r = 0; r < m; ++r) {
    const double* h_row = h + r * n;
    double sum = 0.0;
    for (size_t c = 0; c < n; ++c) sum += h_row[c] * sx[c];
    deviation = std::max(deviation, std::fabs(sum - z[r]));
  }
  return deviation;
}

}  // namespace dkf::lane

#endif  // DKF_FLEET_LANE_KERNEL_H_
