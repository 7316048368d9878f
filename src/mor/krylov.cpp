#include "mor/krylov.h"

#include <utility>

#include "util/check.h"

namespace varmor::mor {

using la::Matrix;
using la::Vector;

Matrix block_arnoldi_extend(Matrix basis,
                            const std::function<Vector(const Vector&)>& apply_a,
                            const Matrix& x0, int blocks, const la::OrthOptions& opts) {
    check(static_cast<bool>(apply_a), "block_arnoldi: apply callback required");
    check(blocks >= 1, "block_arnoldi: need at least one block");
    check(!x0.empty(), "block_arnoldi: empty start block");
    if (!basis.empty())
        check(basis.rows() == x0.rows(), "block_arnoldi: dimension mismatch");

    // The current block is the columns [begin, basis.cols()); it is
    // orthonormalized before first use so deflation inside a block is
    // handled too, and the basis grows in place (extend_basis appends).
    int begin = basis.cols();
    basis = la::extend_basis(std::move(basis), x0, opts);

    for (int j = 1; j < blocks; ++j) {
        const int end = basis.cols();
        if (end == begin) break;  // Krylov space exhausted early
        Matrix next(x0.rows(), end - begin);
        for (int c = begin; c < end; ++c) next.set_col(c - begin, apply_a(basis.col(c)));
        begin = end;
        basis = la::extend_basis(std::move(basis), next, opts);
    }
    return basis;
}

Matrix block_arnoldi(const std::function<Vector(const Vector&)>& apply_a,
                     const Matrix& x0, int blocks, const la::OrthOptions& opts) {
    return block_arnoldi_extend(Matrix(x0.rows(), 0), apply_a, x0, blocks, opts);
}

}  // namespace varmor::mor
