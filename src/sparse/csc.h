#pragma once

#include <algorithm>
#include <complex>
#include <vector>

#include "la/dense.h"
#include "util/check.h"

namespace varmor::sparse {

using la::cplx;
using la::Matrix;
using la::MatrixT;
using la::Vector;
using la::VectorT;
using la::ZMatrix;
using la::ZVector;

/// Coordinate-format accumulator used to stamp MNA matrices. Duplicate
/// (row, col) entries sum, matching circuit-stamping semantics.
template <class T>
class TripletsT {
public:
    TripletsT(int rows, int cols) : rows_(rows), cols_(cols) {
        check(rows >= 0 && cols >= 0, "Triplets: negative dimension");
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int count() const { return static_cast<int>(entries_.size()); }

    /// Adds value at (i, j); duplicates accumulate.
    void add(int i, int j, T value) {
        check(i >= 0 && i < rows_ && j >= 0 && j < cols_, "Triplets::add: index out of range");
        if (value == T{}) return;
        entries_.push_back({i, j, value});
    }

    struct Entry {
        int row;
        int col;
        T value;
    };
    const std::vector<Entry>& entries() const { return entries_; }

private:
    int rows_, cols_;
    std::vector<Entry> entries_;
};

using Triplets = TripletsT<double>;

/// Compressed-sparse-column matrix over scalar T (double for MNA systems,
/// complex<double> for frequency-domain pencils G + sC).
///
/// Invariant: row indices within each column are strictly increasing and
/// duplicates have been summed.
template <class T>
class CscT {
public:
    CscT() = default;

    /// Builds from triplets: sorts, compresses, sums duplicates, drops zeros.
    explicit CscT(const TripletsT<T>& t) : rows_(t.rows()), cols_(t.cols()) {
        std::vector<typename TripletsT<T>::Entry> e = t.entries();
        std::sort(e.begin(), e.end(), [](const auto& a, const auto& b) {
            return a.col != b.col ? a.col < b.col : a.row < b.row;
        });
        col_ptr_.assign(static_cast<std::size_t>(cols_) + 1, 0);
        for (std::size_t k = 0; k < e.size();) {
            std::size_t k2 = k;
            T sum{};
            while (k2 < e.size() && e[k2].col == e[k].col && e[k2].row == e[k].row)
                sum += e[k2++].value;
            if (sum != T{}) {
                row_idx_.push_back(e[k].row);
                values_.push_back(sum);
                ++col_ptr_[static_cast<std::size_t>(e[k].col) + 1];
            }
            k = k2;
        }
        for (int j = 0; j < cols_; ++j)
            col_ptr_[static_cast<std::size_t>(j) + 1] += col_ptr_[static_cast<std::size_t>(j)];
    }

    /// Raw constructor from compressed arrays (trusted, used internally).
    CscT(int rows, int cols, std::vector<int> col_ptr, std::vector<int> row_idx,
         std::vector<T> values)
        : rows_(rows), cols_(cols), col_ptr_(std::move(col_ptr)),
          row_idx_(std::move(row_idx)), values_(std::move(values)) {
        check(static_cast<int>(col_ptr_.size()) == cols_ + 1, "Csc: bad col_ptr");
        check(row_idx_.size() == values_.size(), "Csc: bad arrays");
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int nnz() const { return static_cast<int>(values_.size()); }

    const std::vector<int>& col_ptr() const { return col_ptr_; }
    const std::vector<int>& row_idx() const { return row_idx_; }
    const std::vector<T>& values() const { return values_; }
    std::vector<T>& values() { return values_; }

    /// y = A x.
    VectorT<T> apply(const VectorT<T>& x) const {
        check(x.size() == cols_, "Csc::apply: dimension mismatch");
        VectorT<T> y(rows_);
        scatter(x.data(), y.data());
        return y;
    }

    /// y = A^T x (plain transpose, no conjugation).
    VectorT<T> apply_transpose(const VectorT<T>& x) const {
        check(x.size() == rows_, "Csc::apply_transpose: dimension mismatch");
        VectorT<T> y(cols_);
        gather(x.data(), y.data());
        return y;
    }

    /// Y = A X, each column bitwise apply(X.col(j)), computed straight into
    /// Y's columns.
    MatrixT<T> apply(const MatrixT<T>& x) const {
        check(x.rows() == cols_, "Csc::apply: dimension mismatch");
        MatrixT<T> y(rows_, x.cols());
        for (int j = 0; j < x.cols(); ++j) scatter(x.col_data(j), y.col_data(j));
        return y;
    }

    /// Y = A^T X, each column bitwise apply_transpose(X.col(j)).
    MatrixT<T> apply_transpose(const MatrixT<T>& x) const {
        check(x.rows() == rows_, "Csc::apply_transpose: dimension mismatch");
        MatrixT<T> y(cols_, x.cols());
        for (int j = 0; j < x.cols(); ++j) gather(x.col_data(j), y.col_data(j));
        return y;
    }

    /// Dense copy (tests and small reduced systems only).
    MatrixT<T> to_dense() const {
        MatrixT<T> d(rows_, cols_);
        for (int j = 0; j < cols_; ++j)
            for (int p = col_ptr_[static_cast<std::size_t>(j)];
                 p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p)
                d(row_idx_[static_cast<std::size_t>(p)], j) = values_[static_cast<std::size_t>(p)];
        return d;
    }

private:
    /// y += A x for a zeroed y of length rows_ (column-by-column scatter).
    void scatter(const T* x, T* y) const {
        for (int j = 0; j < cols_; ++j) {
            const T xj = x[j];
            if (xj == T{}) continue;
            for (int p = col_ptr_[static_cast<std::size_t>(j)];
                 p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p)
                y[row_idx_[static_cast<std::size_t>(p)]] += values_[static_cast<std::size_t>(p)] * xj;
        }
    }

    /// y = A^T x (one sparse dot per column of A).
    void gather(const T* x, T* y) const {
        for (int j = 0; j < cols_; ++j) {
            T acc{};
            for (int p = col_ptr_[static_cast<std::size_t>(j)];
                 p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p)
                acc += values_[static_cast<std::size_t>(p)] * x[row_idx_[static_cast<std::size_t>(p)]];
            y[j] = acc;
        }
    }

    int rows_ = 0;
    int cols_ = 0;
    std::vector<int> col_ptr_{0};
    std::vector<int> row_idx_;
    std::vector<T> values_;
};

using Csc = CscT<double>;
using ZCsc = CscT<cplx>;

/// alpha*A + beta*B with general (unioned) sparsity patterns.
template <class T>
CscT<T> add(T alpha, const CscT<T>& a, T beta, const CscT<T>& b) {
    check(a.rows() == b.rows() && a.cols() == b.cols(), "sparse add: shape mismatch");
    TripletsT<T> t(a.rows(), a.cols());
    for (int j = 0; j < a.cols(); ++j) {
        for (int p = a.col_ptr()[static_cast<std::size_t>(j)];
             p < a.col_ptr()[static_cast<std::size_t>(j) + 1]; ++p)
            t.add(a.row_idx()[static_cast<std::size_t>(p)], j,
                  alpha * a.values()[static_cast<std::size_t>(p)]);
        for (int p = b.col_ptr()[static_cast<std::size_t>(j)];
             p < b.col_ptr()[static_cast<std::size_t>(j) + 1]; ++p)
            t.add(b.row_idx()[static_cast<std::size_t>(p)], j,
                  beta * b.values()[static_cast<std::size_t>(p)]);
    }
    return CscT<T>(t);
}

/// Complex pencil G + s C from two real matrices (frequency sweeps).
ZCsc pencil(const Csc& g, const Csc& c, cplx s);

/// Promotes a real sparse matrix to complex.
ZCsc to_complex(const Csc& a);

/// Transposed copy.
template <class T>
CscT<T> transpose(const CscT<T>& a) {
    TripletsT<T> t(a.cols(), a.rows());
    for (int j = 0; j < a.cols(); ++j)
        for (int p = a.col_ptr()[static_cast<std::size_t>(j)];
             p < a.col_ptr()[static_cast<std::size_t>(j) + 1]; ++p)
            t.add(j, a.row_idx()[static_cast<std::size_t>(p)],
                  a.values()[static_cast<std::size_t>(p)]);
    return CscT<T>(t);
}

/// Builds a CSC matrix from a dense one, dropping exact zeros (tests).
template <class T>
CscT<T> from_dense(const MatrixT<T>& d) {
    TripletsT<T> t(d.rows(), d.cols());
    for (int j = 0; j < d.cols(); ++j)
        for (int i = 0; i < d.rows(); ++i)
            if (d(i, j) != T{}) t.add(i, j, d(i, j));
    return CscT<T>(t);
}

}  // namespace varmor::sparse
