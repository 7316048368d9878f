#include "mor/single_point.h"

#include "la/ops.h"
#include "sparse/splu.h"
#include "util/check.h"

namespace varmor::mor {

using la::Matrix;
using la::Vector;

SinglePointResult single_point_basis(const circuit::ParametricSystem& sys,
                                     const SinglePointOptions& opts) {
    sys.validate();
    check(opts.order >= 0, "single_point_basis: negative order");

    const sparse::SparseLu lu(sys.g0);
    const int np = sys.num_params();

    // Letters of the multi-parameter expansion (eq. (7)):
    //   A_s  = -G0^-1 C0          degree 1   (variable s)
    //   A_gi = -G0^-1 Gi          degree 1   (variable p_i)
    //   A_ci = -G0^-1 Ci          degree 2   (variable s * p_i)
    struct Letter {
        const sparse::Csc* m;
        int degree;
    };
    std::vector<Letter> letters;
    letters.push_back({&sys.c0, 1});
    for (int i = 0; i < np; ++i) letters.push_back({&sys.dg[static_cast<std::size_t>(i)], 1});
    for (int i = 0; i < np; ++i) letters.push_back({&sys.dc[static_cast<std::size_t>(i)], 2});

    auto apply_letter = [&](const Letter& letter, const Vector& x) {
        Vector y = lu.solve(letter.m->apply(x));
        la::scale(y, -1.0);
        return y;
    };

    // Word tree rooted at the columns of R0 = G0^-1 B. Children are produced
    // from the raw (normalized) word values, NOT from the deflated basis, so
    // the generated set is exactly {all word products of degree <= k}.
    struct Word {
        Vector value;
        int degree;
    };
    std::vector<Word> frontier;
    const Matrix r0 = lu.solve(sys.b);
    SinglePointResult out;
    out.basis = Matrix(sys.size(), 0);

    for (int j = 0; j < r0.cols(); ++j) {
        Vector v = r0.col(j);
        const double nrm = la::norm2(v);
        if (nrm > 0) la::scale(v, 1.0 / nrm);
        frontier.push_back({v, 0});
    }

    std::size_t cursor = 0;
    while (cursor < frontier.size()) {
        check(static_cast<int>(frontier.size()) <= opts.max_words,
              "single_point_basis: word budget exceeded; lower the order "
              "(this combinatorial growth is the method's known weakness)");
        const Word word = frontier[cursor++];  // copy: frontier may reallocate
        ++out.words_generated;
        out.basis = la::extend_basis(std::move(out.basis), [&] {
            Matrix one(word.value.size(), 1);
            one.set_col(0, word.value);
            return one;
        }(), opts.orth);

        for (const Letter& letter : letters) {
            if (word.degree + letter.degree > opts.order) continue;
            Vector child = apply_letter(letter, word.value);
            const double nrm = la::norm2(child);
            if (nrm <= 1e-300) continue;
            la::scale(child, 1.0 / nrm);
            frontier.push_back({std::move(child), word.degree + letter.degree});
        }
    }
    return out;
}

}  // namespace varmor::mor
