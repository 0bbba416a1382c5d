#pragma once
// Row-major dense double matrix plus the vector operations the bandit
// framework needs. Deliberately small: the per-arm models are (m+1)-dim
// with m <= ~10, so clarity beats BLAS-style blocking here. The *workload*
// matmul kernel (src/apps/matmul.hpp) is the tuned one.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace bw::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// Construct from nested initializer list; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  /// Reshapes to rows x cols filled with `fill`, reusing the storage: no
  /// allocation once it has held rows * cols entries.
  void assign(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Contiguous view of row r.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Matrix transposed() const;

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(const Matrix& other) const;  ///< naive O(n^3) product
  Matrix operator*(double scalar) const;

  Vector operator*(const Vector& x) const;  ///< matrix-vector product

  bool operator==(const Matrix& other) const = default;

  /// max |a_ij - b_ij|; matrices must have identical shape.
  double max_abs_diff(const Matrix& other) const;

  double frobenius_norm() const;

  std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- free vector operations -------------------------------------------

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);
Vector add(std::span<const double> a, std::span<const double> b);
Vector subtract(std::span<const double> a, std::span<const double> b);
Vector scale(std::span<const double> a, double s);

/// a += s * b (axpy).
void axpy(double s, std::span<const double> b, std::span<double> a);

/// Outer product a b^T as a dense matrix.
Matrix outer(std::span<const double> a, std::span<const double> b);

/// true iff every element is finite.
bool all_finite(std::span<const double> xs);

}  // namespace bw::linalg
