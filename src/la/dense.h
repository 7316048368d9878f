#pragma once

#include <complex>
#include <initializer_list>
#include <vector>

#include "util/check.h"

namespace varmor::la {

using cplx = std::complex<double>;

/// Dense column vector over scalar T (double or std::complex<double>).
template <class T>
class VectorT {
public:
    VectorT() = default;

    /// Zero vector of dimension n.
    explicit VectorT(int n) : data_(static_cast<std::size_t>(check_dim(n))) {}

    /// Constant vector of dimension n.
    VectorT(int n, T value) : data_(static_cast<std::size_t>(check_dim(n)), value) {}

    /// Vector from an explicit element list, e.g. Vector{1.0, 2.0}.
    VectorT(std::initializer_list<T> values) : data_(values) {}

    int size() const { return static_cast<int>(data_.size()); }

    T& operator[](int i) { return data_[static_cast<std::size_t>(i)]; }
    const T& operator[](int i) const { return data_[static_cast<std::size_t>(i)]; }

    T* data() { return data_.data(); }
    const T* data() const { return data_.data(); }

    void fill(T value) { data_.assign(data_.size(), value); }

    /// Underlying storage (for interop with algorithms that want a raw span).
    std::vector<T>& raw() { return data_; }
    const std::vector<T>& raw() const { return data_; }

private:
    static int check_dim(int n) {
        check(n >= 0, "VectorT: negative dimension");
        return n;
    }
    std::vector<T> data_;
};

/// Dense matrix over scalar T, stored column-major (like LAPACK).
///
/// Column-major layout matters throughout varmor: Krylov bases are grown
/// column by column in place (append_col), and col()/set_col() must be
/// contiguous copies.
template <class T>
class MatrixT {
public:
    MatrixT() = default;

    /// Zero matrix of shape rows x cols.
    MatrixT(int rows, int cols)
        : rows_(check_dim(rows)), cols_(check_dim(cols)),
          data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {}

    /// Constant matrix of shape rows x cols.
    MatrixT(int rows, int cols, T value)
        : rows_(check_dim(rows)), cols_(check_dim(cols)),
          data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), value) {}

    /// Matrix from nested row lists, e.g. Matrix{{1,2},{3,4}}.
    MatrixT(std::initializer_list<std::initializer_list<T>> rows_list) {
        rows_ = static_cast<int>(rows_list.size());
        cols_ = rows_ == 0 ? 0 : static_cast<int>(rows_list.begin()->size());
        data_.resize(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_));
        int i = 0;
        for (const auto& row : rows_list) {
            check(static_cast<int>(row.size()) == cols_, "MatrixT: ragged initializer");
            int j = 0;
            for (const T& v : row) (*this)(i, j++) = v;
            ++i;
        }
    }

    /// n x n identity.
    static MatrixT identity(int n) {
        MatrixT m(n, n);
        for (int i = 0; i < n; ++i) m(i, i) = T(1);
        return m;
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    T& operator()(int i, int j) { return data_[index(i, j)]; }
    const T& operator()(int i, int j) const { return data_[index(i, j)]; }

    /// Pointer to the start of column j (columns are contiguous).
    T* col_data(int j) { return data_.data() + index(0, j); }
    const T* col_data(int j) const { return data_.data() + index(0, j); }

    /// Copy of column j as a vector.
    VectorT<T> col(int j) const {
        VectorT<T> v(rows_);
        const T* p = col_data(j);
        for (int i = 0; i < rows_; ++i) v[i] = p[i];
        return v;
    }

    /// Overwrites column j.
    void set_col(int j, const VectorT<T>& v) {
        check(v.size() == rows_, "MatrixT::set_col: dimension mismatch");
        T* p = col_data(j);
        for (int i = 0; i < rows_; ++i) p[i] = v[i];
    }

    /// Appends v as a new last column. Storage grows geometrically, so a
    /// basis built column by column costs amortized O(rows) per column
    /// instead of a copy of the whole basis per column.
    void append_col(const VectorT<T>& v) {
        check(v.size() == rows_, "MatrixT::append_col: dimension mismatch");
        data_.insert(data_.end(), v.raw().begin(), v.raw().end());
        ++cols_;
    }

    /// Copy of columns [j0, j0+count).
    MatrixT cols_range(int j0, int count) const {
        check(j0 >= 0 && count >= 0 && j0 + count <= cols_,
              "MatrixT::cols_range: out of range");
        MatrixT out(rows_, count);
        for (int j = 0; j < count; ++j)
            for (int i = 0; i < rows_; ++i) out(i, j) = (*this)(i, j0 + j);
        return out;
    }

    void fill(T value) { data_.assign(data_.size(), value); }

    std::vector<T>& raw() { return data_; }
    const std::vector<T>& raw() const { return data_; }

private:
    static int check_dim(int n) {
        check(n >= 0, "MatrixT: negative dimension");
        return n;
    }
    std::size_t index(int i, int j) const {
        return static_cast<std::size_t>(j) * static_cast<std::size_t>(rows_) +
               static_cast<std::size_t>(i);
    }

    int rows_ = 0;
    int cols_ = 0;
    std::vector<T> data_;
};

using Vector = VectorT<double>;
using Matrix = MatrixT<double>;
using ZVector = VectorT<cplx>;
using ZMatrix = MatrixT<cplx>;

}  // namespace varmor::la
