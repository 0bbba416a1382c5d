#include "linalg/matrix.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace bw::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    BW_CHECK_MSG(row.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix eye(n, n);
  for (std::size_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

void Matrix::assign(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  BW_CHECK_MSG(r < rows_ && c < cols_, "Matrix index out of range");
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  BW_CHECK_MSG(r < rows_ && c < cols_, "Matrix index out of range");
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  BW_CHECK_MSG(r < rows_, "Matrix row out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  BW_CHECK_MSG(r < rows_, "Matrix row out of range");
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::operator+(const Matrix& other) const {
  BW_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_, "Matrix shape mismatch in +");
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] + other.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  BW_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_, "Matrix shape mismatch in -");
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] - other.data_[i];
  return out;
}

Matrix Matrix::operator*(const Matrix& other) const {
  BW_CHECK_MSG(cols_ == other.rows_, "Matrix shape mismatch in *");
  Matrix out(rows_, other.cols_);
  // i-k-j order keeps the inner loop contiguous in both operands.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.data_.data() + k * other.cols_;
      double* orow = out.data_.data() + i * other.cols_;
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * scalar;
  return out;
}

Vector Matrix::operator*(const Vector& x) const {
  BW_CHECK_MSG(cols_ == x.size(), "Matrix-vector shape mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) y[r] = dot(row(r), x);
  return y;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  BW_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_, "Matrix shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

double Matrix::frobenius_norm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << '[';
    for (std::size_t c = 0; c < cols_; ++c) {
      os << (*this)(r, c);
      if (c + 1 < cols_) os << ", ";
    }
    os << "]\n";
  }
  return os.str();
}

double dot(std::span<const double> a, std::span<const double> b) {
  BW_CHECK_MSG(a.size() == b.size(), "dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

Vector add(std::span<const double> a, std::span<const double> b) {
  BW_CHECK_MSG(a.size() == b.size(), "add: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector subtract(std::span<const double> a, std::span<const double> b) {
  BW_CHECK_MSG(a.size() == b.size(), "subtract: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector scale(std::span<const double> a, double s) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

void axpy(double s, std::span<const double> b, std::span<double> a) {
  BW_CHECK_MSG(a.size() == b.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

Matrix outer(std::span<const double> a, std::span<const double> b) {
  Matrix out(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) out(i, j) = a[i] * b[j];
  }
  return out;
}

bool all_finite(std::span<const double> xs) {
  for (double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace bw::linalg
