#pragma once

#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "sparse/csc.h"
#include "sparse/splu.h"

namespace varmor::solve {

/// One reference factorization + the refactorize-or-fallback policy of every
/// batched solve driver, in exactly one place.
///
/// The batch drivers (frequency sweeps, corner-batch transients) all follow
/// the same scaffold: factor ONE reference matrix of the family (sharing a
/// pre-computed symbolic analysis of the family's union sparsity pattern),
/// hand each worker thread a Scratch whose factor object shares the
/// reference's immutable symbolic data, and evaluate every point by a
/// numeric-only refactorize() of the frozen reference pivot sequence —
/// falling back to a fresh, point-local factorization (same shared symbolic)
/// when the frozen pivots collapse or grow unstable (sparse::RefactorError).
///
/// Determinism contract: the fallback decision depends only on the point's
/// own values (never on which thread computes it or on what ran before in
/// the chunk — scratch.lu keeps the reference pivot sequence even after a
/// fallback), so a parallel batch is bit-identical to a serial batch and to
/// a looped batch-of-one.
template <class T>
class RefactorBatchT {
public:
    RefactorBatchT() = default;

    /// Factors `reference` (values on the family's union pattern) with the
    /// shared symbolic analysis. `symbolic` must be the analysis of exactly
    /// that pattern and must outlive this object.
    RefactorBatchT(const sparse::CscT<T>& reference, const sparse::SpluSymbolic& symbolic)
        : symbolic_(&symbolic) {
        reference_.emplace(reference, symbolic);
    }

    /// The reference factorization itself (e.g. the nominal corner or the
    /// first frequency point of a sweep).
    const sparse::SparseLuT<T>& reference() const { return *reference_; }

    /// Per-worker scratch: the assembly target carrying the union pattern, a
    /// copy of the reference factorization (shares the immutable symbolic
    /// data, costs only the value arrays), LU workspace, and the slot for a
    /// point-local fallback factorization. Reusable across points with zero
    /// steady-state allocation.
    struct Scratch {
        sparse::CscT<T> a;                              ///< assembly target (union pattern)
        sparse::SparseLuT<T> lu;                        ///< reference copy, refactorized per point
        sparse::SpluWorkspaceT<T> ws;
        std::optional<sparse::SparseLuT<T>> fallback;   ///< point-local, on demand
    };

    /// Builds a Scratch around `skeleton` (a zero-valued matrix carrying the
    /// union pattern, from the family's assembler).
    Scratch make_scratch(sparse::CscT<T> skeleton) const {
        return Scratch{std::move(skeleton), *reference_, {}, std::nullopt};
    }

    /// The policy: the caller assembled this point's values into `s.a`;
    /// returns the solver for them. Refactorizes the reference pivot
    /// sequence in place (the hot path); on sparse::RefactorError factors
    /// the point from scratch with the shared symbolic analysis. The
    /// returned reference points into `s` and is valid until the next
    /// factor()/use_reference() call on the same scratch.
    const sparse::SparseLuT<T>& factor(Scratch& s) const {
        // Registry dedupes by name, so the double and complex instantiations
        // share ONE counter each.
        static obs::Counter& refactorizations =
            obs::Registry::global().counter("solve.refactorizations");
        static obs::Counter& fallbacks =
            obs::Registry::global().counter("solve.refactor_fallbacks");
        try {
            s.lu.refactorize(s.a, s.ws);
            refactorizations.add();
            return s.lu;
        } catch (const sparse::RefactorError&) {
            // Point-local fallback; s.lu keeps the reference pivot sequence
            // so later points in the chunk stay batch-independent.
            fallbacks.add();
            typename sparse::SparseLuT<T>::Options opts;
            opts.symbolic = symbolic_;
            s.fallback.emplace(s.a, opts, s.ws);
            return *s.fallback;
        }
    }

    /// Point-local copy of the reference factorization — the shortcut for a
    /// point whose matrix IS the reference (e.g. the nominal corner). A copy
    /// rather than reference() itself because solve() keeps per-instance
    /// bookkeeping that must not be shared across threads.
    const sparse::SparseLuT<T>& use_reference(Scratch& s) const {
        s.fallback.emplace(*reference_);
        return *s.fallback;
    }

private:
    const sparse::SpluSymbolic* symbolic_ = nullptr;
    std::optional<sparse::SparseLuT<T>> reference_;
};

using RefactorBatch = RefactorBatchT<double>;
using ZRefactorBatch = RefactorBatchT<sparse::cplx>;

}  // namespace varmor::solve
