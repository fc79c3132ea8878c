// Dense matrices over GF(2^8).
//
// Every code in this repository is linear, and every construction step the
// paper describes — systematisation, Kronecker expansion, symbol remapping
// (right-multiplication by the inverse of the selected submatrix Ĝ₀),
// reordering — is a matrix operation over GF(256).  This module provides
// those operations plus the structured builders (Vandermonde, extended-Cauchy
// systematic generators) the code constructions need.

#ifndef CAROUSEL_MATRIX_MATRIX_H
#define CAROUSEL_MATRIX_MATRIX_H

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gf/gf256.h"

namespace carousel::matrix {

using gf::Byte;

/// Row-major dense matrix over GF(2^8).
class Matrix {
 public:
  Matrix() = default;
  /// rows x cols zero matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}
  /// Build from an initializer row list (rows must be equal length).
  static Matrix from_rows(std::initializer_list<std::initializer_list<int>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  Byte& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  Byte at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Contiguous view of row r.
  std::span<Byte> row(std::size_t r) { return {&data_[r * cols_], cols_}; }
  std::span<const Byte> row(std::size_t r) const {
    return {&data_[r * cols_], cols_};
  }
  /// Every entry, row-major: rows() x cols().
  std::span<const Byte> data() const { return data_; }

  bool operator==(const Matrix&) const = default;

  /// Matrix product this * rhs; requires cols() == rhs.rows().
  Matrix mul(const Matrix& rhs) const;

  /// Matrix-vector product this * v; requires v.size() == cols().
  std::vector<Byte> mul_vec(std::span<const Byte> v) const;

  /// Gauss-Jordan inverse; nullopt when singular.  Requires square.
  std::optional<Matrix> inverse() const;

  /// Rank via Gaussian elimination (non-destructive).
  std::size_t rank() const;

  bool is_square() const { return rows_ == cols_; }
  bool is_identity() const;
  bool is_zero() const;

  Matrix transpose() const;

  /// New matrix made of the given rows, in the given order (repeats allowed).
  Matrix select_rows(std::span<const std::size_t> indices) const;
  /// New matrix made of the given columns, in the given order.
  Matrix select_cols(std::span<const std::size_t> indices) const;

  /// Stack this on top of bottom; column counts must match.
  Matrix vstack(const Matrix& bottom) const;
  /// This side by side with right; row counts must match.
  Matrix hstack(const Matrix& right) const;

  /// Interleaved Kronecker expansion with the identity: element (r, c) becomes
  /// a p x p diagonal block, laid out so that expanded row index is r*p + u
  /// and expanded column index is c*p + u.  This is the paper's "multiply each
  /// element with an identity matrix of size P x P" expansion step, with unit
  /// coordinate u varying fastest.
  Matrix kron_identity(std::size_t p) const;

  /// Number of nonzero entries.
  std::size_t nonzeros() const;
  /// Nonzero column indices of row r (for sparse encode paths).
  std::vector<std::size_t> row_support(std::size_t r) const;

  static Matrix identity(std::size_t n);

  /// Human-readable dump (hex), mainly for tests and the Fig.5 bench.
  std::string to_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Byte> data_;
};

/// n x k Vandermonde matrix: row i = [1, x_i, x_i^2, ..., x_i^{k-1}] with
/// x_i the i-th field element of the given evaluation points.
Matrix vandermonde(std::span<const Byte> xs, std::size_t k);

/// Systematic MDS generator for an (n, k) code: the identity stacked on an
/// (n-k) x k Cauchy matrix with disjoint coordinate sets, C_ij = 1/(x_i+y_j).
/// Every k-row submatrix is nonsingular, i.e. the code is provably MDS
/// (unlike Vandermonde row-reduction).  Requires n <= 256.
Matrix cauchy_systematic(std::size_t n, std::size_t k);

/// Solve A x = b for square nonsingular A; nullopt when singular.
std::optional<std::vector<Byte>> solve(const Matrix& a, std::span<const Byte> b);

}  // namespace carousel::matrix

#endif  // CAROUSEL_MATRIX_MATRIX_H
