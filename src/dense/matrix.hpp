// Row-major dense matrix: the H, Z, G, W, Y operands of GNN training.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/util/types.hpp"

namespace cagnet {

/// Dense row-major matrix of Real. Activations H^l are (n x f), weights W^l
/// are (f_in x f_out). Row-major keeps SpMM's register strips over a
/// contiguous feature row, which is the layout cuSPARSE csrmm2 effectively
/// consumed in the paper's implementation.
class Matrix {
 public:
  Matrix() = default;
  Matrix(Index rows, Index cols) : rows_(rows), cols_(cols) {
    CAGNET_CHECK(rows >= 0 && cols >= 0, "negative matrix dimension");
    data_.assign(static_cast<std::size_t>(rows * cols), Real{0});
  }

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index size() const { return rows_ * cols_; }
  bool empty() const { return data_.empty(); }

  Real& operator()(Index i, Index j) {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  Real operator()(Index i, Index j) const {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  Real* data() { return data_.data(); }
  const Real* data() const { return data_.data(); }

  std::span<Real> row(Index i) {
    return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
  }
  std::span<const Real> row(Index i) const {
    return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
  }

  std::span<Real> flat() { return {data_.data(), data_.size()}; }
  std::span<const Real> flat() const { return {data_.data(), data_.size()}; }

  void set_zero() { std::fill(data_.begin(), data_.end(), Real{0}); }
  void fill(Real v) { std::fill(data_.begin(), data_.end(), v); }

  /// Reshape to (rows x cols), reusing the existing allocation when the
  /// capacity suffices — the workspace primitive of the allocation-free
  /// hot path. Contents are unspecified afterwards; callers must overwrite
  /// (or call set_zero) before reading.
  void resize(Index rows, Index cols) {
    CAGNET_CHECK(rows >= 0 && cols >= 0, "negative matrix dimension");
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<std::size_t>(rows * cols));
  }

  /// Uniform values in [lo, hi) from the given stream.
  void fill_uniform(Rng& rng, Real lo, Real hi);

  /// Glorot/Xavier-uniform init for a (fan_in x fan_out) weight matrix:
  /// U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))).
  void fill_glorot(Rng& rng);

  /// Copy `src` into this matrix with its (0,0) at (row0, col0).
  void set_block(Index row0, Index col0, const Matrix& src);

  /// Extract the block of shape (rows x cols) anchored at (row0, col0).
  Matrix block(Index row0, Index col0, Index rows, Index cols) const;

  /// block() into a caller-owned matrix whose storage is reused.
  void block_into(Index row0, Index col0, Index rows, Index cols,
                  Matrix& out) const;

  /// Out-of-place transpose.
  Matrix transposed() const;

  /// Frobenius norm.
  Real frobenius_norm() const;

  /// max_ij |a_ij - b_ij|; matrices must be same shape.
  static Real max_abs_diff(const Matrix& a, const Matrix& b);

  /// True if shapes match and all entries differ by at most atol.
  static bool allclose(const Matrix& a, const Matrix& b, Real atol);

  std::string shape_string() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Real> data_;
};

}  // namespace cagnet
