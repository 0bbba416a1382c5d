#pragma once
// Intercept augmentation [x; 1] — the one place that defines how the bias
// column is attached to a feature vector or design matrix. Both the batch
// fitter (linalg/lstsq) and the recursive updater (linalg/rls) append the
// intercept *last*, and serialized evidence (every snapshot's per-arm R and
// z) relies on that layout, so the convention lives here instead of being
// hand-rolled per call site.

#include <span>

#include "linalg/matrix.hpp"

namespace bw::linalg {

/// Returns [x; 1] as a fresh vector (length x.size() + 1).
Vector with_intercept(std::span<const double> x);

/// Writes [x; 1] into `out`, resizing it to x.size() + 1. Allocation-free
/// once `out` has warmed up — intended for per-observation hot paths.
void with_intercept_into(std::span<const double> x, Vector& out);

/// Returns [X | 1]: a copy of X with a trailing ones column.
Matrix with_intercept_column(const Matrix& x);

}  // namespace bw::linalg
