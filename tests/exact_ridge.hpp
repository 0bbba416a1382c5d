#pragma once
// Reference solutions for the recursive learner's property tests: the
// (discounted) ridge regression an RLS stream should reproduce, accumulated
// and solved in long double from the normal equations
//   (λⁿ ridge I + Σ λ^{n-i} x̃ᵢx̃ᵢᵀ) θ = Σ λ^{n-i} yᵢ x̃ᵢ,   x̃ = [x; 1].
// Gaussian elimination with partial pivoting; the 64-bit mantissa keeps
// the reference's own error far below the 1e-9 bounds it checks, even on
// raw matmul sizes where the Gram matrix spans sixteen orders of magnitude.

#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace bw::testing {

class ExactRidge {
 public:
  ExactRidge(std::size_t dim, double ridge, double lambda = 1.0)
      : lambda_(lambda),
        a_(dim + 1, std::vector<long double>(dim + 1, 0.0L)),
        b_(dim + 1, 0.0L) {
    for (std::size_t i = 0; i <= dim; ++i) a_[i][i] = ridge;
  }

  void add(std::span<const double> x, double y) {
    const std::size_t p = b_.size();
    std::vector<long double> xa(x.begin(), x.end());
    xa.push_back(1.0L);
    for (std::size_t r = 0; r < p; ++r) {
      for (std::size_t c = 0; c < p; ++c) a_[r][c] = lambda_ * a_[r][c] + xa[r] * xa[c];
      b_[r] = lambda_ * b_[r] + static_cast<long double>(y) * xa[r];
    }
  }

  /// θ = [w; b] of the evidence added so far.
  std::vector<long double> theta() const {
    std::vector<std::vector<long double>> a = a_;
    std::vector<long double> b = b_;
    const std::size_t p = b.size();
    for (std::size_t col = 0; col < p; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col + 1; r < p; ++r) {
        if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
      }
      std::swap(a[col], a[pivot]);
      std::swap(b[col], b[pivot]);
      for (std::size_t r = col + 1; r < p; ++r) {
        const long double f = a[r][col] / a[col][col];
        for (std::size_t c = col; c < p; ++c) a[r][c] -= f * a[col][c];
        b[r] -= f * b[col];
      }
    }
    std::vector<long double> theta(p);
    for (std::size_t ii = p; ii > 0; --ii) {
      const std::size_t i = ii - 1;
      long double s = b[i];
      for (std::size_t c = i + 1; c < p; ++c) s -= a[i][c] * theta[c];
      theta[i] = s / a[i][i];
    }
    return theta;
  }

  /// θ·[x; 1] in long double.
  static long double predict(const std::vector<long double>& theta,
                             std::span<const double> x) {
    long double sum = theta.back();
    for (std::size_t k = 0; k < x.size(); ++k) sum += theta[k] * x[k];
    return sum;
  }

 private:
  long double lambda_;
  std::vector<std::vector<long double>> a_;
  std::vector<long double> b_;
};

}  // namespace bw::testing
