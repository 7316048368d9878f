// Google-benchmark micro-benchmarks for the numerical kernels underneath the
// reproduction: sparse LU (the dominant cost of every method), transpose
// solves (the A0^T subspaces), matrix-implicit truncated SVD, the PRIMA
// block-Krylov builder, and the PR-8 simd dense layer. The dense kernels are
// benchmarked in pairs against the retained *_naive references (the seed
// implementations), so the emitted BENCH_kernels_micro.json carries the
// scalar-reference-vs-kernel ratio per size; the "simd" context key records
// which arm of src/la/simd.h the binary was built with.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "analysis/freq_sweep.h"
#include "la/hessenberg.h"
#include "la/lu_dense.h"
#include "la/ops.h"
#include "la/orth.h"
#include "la/simd.h"
#include "circuit/generators.h"
#include "circuit/mna.h"
#include "mor/lowrank_pmor.h"
#include "mor/prima.h"
#include "reference_kernels.h"
#include "sparse/assemble.h"
#include "sparse/splu.h"
#include "sparse/svd_iterative.h"

using namespace varmor;

namespace {

circuit::ParametricSystem make_net(int unknowns) {
    circuit::RandomRcOptions o;
    o.unknowns = unknowns;
    return assemble_mna(circuit::random_rc_net(o));
}

void BM_SparseLuFactor(benchmark::State& state) {
    const auto sys = make_net(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        sparse::SparseLu lu(sys.g0);
        benchmark::DoNotOptimize(lu.nnz_l());
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SparseLuFactor)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000)->Complexity();

void BM_SparseLuRefactor(benchmark::State& state) {
    // Numeric-only refactorization over cached symbolic data — the per-point
    // cost of a batched sweep. Compare against BM_SparseLuFactor at the same
    // size for the symbolic/numeric split ratio.
    const auto sys = make_net(static_cast<int>(state.range(0)));
    sparse::SparseLu lu(sys.g0);
    sparse::SpluWorkspace ws;
    for (auto _ : state) {
        lu.refactorize(sys.g0, ws);
        benchmark::DoNotOptimize(lu.nnz_l());
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SparseLuRefactor)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000)->Complexity();

void BM_PencilAssemble(benchmark::State& state) {
    // Union-pattern value scatter vs the triplet-sorting sparse::pencil.
    const auto sys = make_net(2000);
    const sparse::PencilAssembler assembler(sys.g0, sys.c0);
    sparse::ZCsc target = assembler.skeleton();
    const la::cplx s(0.0, 1e9);
    for (auto _ : state) {
        assembler.assemble(s, target);
        benchmark::DoNotOptimize(target.values().data());
    }
}
BENCHMARK(BM_PencilAssemble);

void BM_PencilAssembleLegacy(benchmark::State& state) {
    const auto sys = make_net(2000);
    const la::cplx s(0.0, 1e9);
    for (auto _ : state)
        benchmark::DoNotOptimize(sparse::pencil(sys.g0, sys.c0, s));
}
BENCHMARK(BM_PencilAssembleLegacy);

void BM_SweepFull(benchmark::State& state) {
    // End-to-end batched sweep. Arg 1 = serial, Arg 0 = the process-wide
    // pool (built once, so the measurement excludes pool construction;
    // size it with VARMOR_NUM_THREADS).
    const auto sys = make_net(1000);
    const std::vector<double> p(static_cast<std::size_t>(sys.num_params()), 0.05);
    const auto freqs = analysis::log_frequencies(1e6, 1e10, 24);
    const int threads = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(analysis::sweep_full(sys, p, freqs, threads));
}
BENCHMARK(BM_SweepFull)->Arg(1)->Arg(0);

void BM_SparseLuSolve(benchmark::State& state) {
    const auto sys = make_net(static_cast<int>(state.range(0)));
    const sparse::SparseLu lu(sys.g0);
    la::Vector b(sys.size());
    for (int i = 0; i < sys.size(); ++i) b[i] = 1.0 + 0.001 * i;
    for (auto _ : state) benchmark::DoNotOptimize(lu.solve(b));
}
BENCHMARK(BM_SparseLuSolve)->Arg(1000)->Arg(4000);

void BM_SparseLuTransposeSolve(benchmark::State& state) {
    const auto sys = make_net(static_cast<int>(state.range(0)));
    const sparse::SparseLu lu(sys.g0);
    la::Vector b(sys.size());
    for (int i = 0; i < sys.size(); ++i) b[i] = 1.0 + 0.001 * i;
    for (auto _ : state) benchmark::DoNotOptimize(lu.solve_transpose(b));
}
BENCHMARK(BM_SparseLuTransposeSolve)->Arg(1000)->Arg(4000);

void BM_TruncatedSvdLanczos(benchmark::State& state) {
    const auto sys = make_net(1000);
    const sparse::SparseLu lu(sys.g0);
    const sparse::Csc& g1 = sys.dg[0];
    sparse::LinearOperator op(
        sys.size(), sys.size(),
        [&](const la::Vector& x) { return lu.solve(g1.apply(x)); },
        [&](const la::Vector& x) { return g1.apply_transpose(lu.solve_transpose(x)); });
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sparse::truncated_svd_lanczos(op, static_cast<int>(state.range(0))));
}
BENCHMARK(BM_TruncatedSvdLanczos)->Arg(1)->Arg(2)->Arg(4);

void BM_PrimaBasis(benchmark::State& state) {
    const auto sys = make_net(1000);
    mor::PrimaOptions opts;
    opts.blocks = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(mor::prima_basis(sys.g0, sys.c0, sys.b, opts));
}
BENCHMARK(BM_PrimaBasis)->Arg(4)->Arg(8)->Arg(16);

void BM_LowRankPmor(benchmark::State& state) {
    const auto sys = make_net(static_cast<int>(state.range(0)));
    mor::LowRankPmorOptions opts;
    opts.s_order = 4;
    opts.param_order = 2;
    for (auto _ : state) benchmark::DoNotOptimize(mor::lowrank_pmor(sys, opts));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LowRankPmor)->Arg(500)->Arg(1000)->Arg(2000)->Complexity();

// ---------------------------------------------------------------------------
// PR-8 simd dense layer: kernel-vs-naive pairs over the reduced-order range
// q = 8..80 that brackets the engine's direct/Hessenberg split. The JSON
// ratio BM_X/Arg over BM_XNaive/Arg is the per-size speedup of the arm the
// binary was built with.
// ---------------------------------------------------------------------------

la::Matrix random_matrix(int rows, int cols, unsigned seed) {
    la::Matrix m(rows, cols);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (auto& v : m.raw()) v = d(rng);
    return m;
}

la::ZMatrix random_zmatrix(int rows, int cols, unsigned seed) {
    la::ZMatrix m(rows, cols);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (auto& v : m.raw()) v = la::cplx(d(rng), d(rng));
    return m;
}

void BM_Matmul(benchmark::State& state) {
    const int q = static_cast<int>(state.range(0));
    const la::Matrix a = random_matrix(q, q, 11);
    const la::Matrix b = random_matrix(q, q, 13);
    for (auto _ : state) benchmark::DoNotOptimize(la::matmul(a, b));
    state.SetComplexityN(q);
}
BENCHMARK(BM_Matmul)->Arg(8)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Complexity();

void BM_MatmulNaive(benchmark::State& state) {
    const int q = static_cast<int>(state.range(0));
    const la::Matrix a = random_matrix(q, q, 11);
    const la::Matrix b = random_matrix(q, q, 13);
    for (auto _ : state) benchmark::DoNotOptimize(la::matmul_naive(a, b));
    state.SetComplexityN(q);
}
BENCHMARK(BM_MatmulNaive)->Arg(8)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Complexity();

void BM_MatmulTransA(benchmark::State& state) {
    const int q = static_cast<int>(state.range(0));
    const la::Matrix a = random_matrix(q, q, 17);
    const la::Matrix b = random_matrix(q, q, 19);
    for (auto _ : state) benchmark::DoNotOptimize(la::matmul_transA(a, b));
    state.SetComplexityN(q);
}
BENCHMARK(BM_MatmulTransA)->Arg(8)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Complexity();

void BM_MatmulTransANaive(benchmark::State& state) {
    const int q = static_cast<int>(state.range(0));
    const la::Matrix a = random_matrix(q, q, 17);
    const la::Matrix b = random_matrix(q, q, 19);
    for (auto _ : state) benchmark::DoNotOptimize(la::matmul_transA_naive(a, b));
    state.SetComplexityN(q);
}
BENCHMARK(BM_MatmulTransANaive)->Arg(8)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Complexity();

void BM_HessenbergReduce(benchmark::State& state) {
    const int q = static_cast<int>(state.range(0));
    const la::Matrix a = random_matrix(q, q, 23);
    la::Matrix h, qmat;
    std::vector<double> v;
    for (auto _ : state) {
        h = a;
        la::hessenberg_with_q(h, qmat, v);
        benchmark::DoNotOptimize(h.raw().data());
    }
    state.SetComplexityN(q);
}
BENCHMARK(BM_HessenbergReduce)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Complexity();

void BM_HessenbergReduceNaive(benchmark::State& state) {
    const int q = static_cast<int>(state.range(0));
    const la::Matrix a = random_matrix(q, q, 23);
    la::Matrix h, qmat;
    std::vector<double> v;
    for (auto _ : state) {
        h = a;
        la::hessenberg_with_q_naive(h, qmat, v);
        benchmark::DoNotOptimize(h.raw().data());
    }
    state.SetComplexityN(q);
}
BENCHMARK(BM_HessenbergReduceNaive)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Complexity();

/// Stamps I + sH (transposed when `transposed`) for a fixed Hessenberg-band
/// H — the per-frequency setup hessenberg_solve_t/naive are measured with.
la::ZMatrix stamp_hessenberg(const la::Matrix& hband, la::cplx s, bool transposed) {
    const int q = hband.rows();
    la::ZMatrix m(q, q);
    for (int j = 0; j < q; ++j)
        for (int i = 0; i <= std::min(j + 1, q - 1); ++i) {
            const la::cplx v = s * hband(i, j) + (i == j ? 1.0 : 0.0);
            if (transposed) m(j, i) = v; else m(i, j) = v;
        }
    return m;
}

void BM_HessenbergSolve(benchmark::State& state) {
    const int q = static_cast<int>(state.range(0));
    la::Matrix hband = random_matrix(q, q, 29);
    const la::cplx s(0.4, 1.7);
    const la::ZMatrix mt0 = stamp_hessenberg(hband, s, true);
    const la::ZMatrix r = random_zmatrix(q, 2, 31);
    la::ZMatrix mt, x;
    for (auto _ : state) {
        mt = mt0;
        x = r;
        la::hessenberg_solve_t(mt, x);
        benchmark::DoNotOptimize(x.raw().data());
    }
    state.SetComplexityN(q);
}
BENCHMARK(BM_HessenbergSolve)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Complexity();

void BM_HessenbergSolveNaive(benchmark::State& state) {
    const int q = static_cast<int>(state.range(0));
    la::Matrix hband = random_matrix(q, q, 29);
    const la::cplx s(0.4, 1.7);
    const la::ZMatrix m0 = stamp_hessenberg(hband, s, false);
    const la::ZMatrix r = random_zmatrix(q, 2, 31);
    la::ZMatrix m, x;
    for (auto _ : state) {
        m = m0;
        x = r;
        la::hessenberg_solve_naive(m, x);
        benchmark::DoNotOptimize(x.raw().data());
    }
    state.SetComplexityN(q);
}
BENCHMARK(BM_HessenbergSolveNaive)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Complexity();

// One Gram-Schmidt projection of a vector off k orthonormal columns at
// n = 1500, the study net's full-model Arnoldi shape (subspace 80): la::cgs2
// against the two scalar MGS passes and the norm it replaced.
void BM_GramSchmidt(benchmark::State& state) {
    const int n = 1500, k = static_cast<int>(state.range(0));
    const la::Matrix basis = la::orthonormalize(random_matrix(n, k, 29));
    const la::Matrix w0 = random_matrix(n, 1, 31);
    la::Vector w(n);
    std::vector<double> coef(static_cast<std::size_t>(k)), work(coef.size());
    for (auto _ : state) {
        std::copy_n(w0.col_data(0), n, w.data());
        benchmark::DoNotOptimize(la::cgs2(basis, k, w, coef.data(), work.data()));
    }
    state.SetComplexityN(k);
}
BENCHMARK(BM_GramSchmidt)->Arg(20)->Arg(40)->Arg(80)->Complexity();

void BM_GramSchmidtNaive(benchmark::State& state) {
    const int n = 1500, k = static_cast<int>(state.range(0));
    const la::Matrix basis = la::orthonormalize(random_matrix(n, k, 29));
    const la::Matrix w0 = random_matrix(n, 1, 31);
    la::Vector w(n);
    std::vector<double> coef(static_cast<std::size_t>(k));
    for (auto _ : state) {
        std::copy_n(w0.col_data(0), n, w.data());
        for (int pass = 0; pass < 2; ++pass) la::mgs_pass_naive(basis, k, w, coef.data());
        benchmark::DoNotOptimize(la::norm2(w));
    }
    state.SetComplexityN(k);
}
BENCHMARK(BM_GramSchmidtNaive)->Arg(20)->Arg(40)->Arg(80)->Complexity();

void BM_DenseSubstituteBlocked(benchmark::State& state) {
    // Multi-RHS substitution through the 8-wide blocked kernel: factor once,
    // solve q right-hand sides per iteration (the engine's A = G^-1 C shape).
    const int q = static_cast<int>(state.range(0));
    la::Matrix a = random_matrix(q, q, 37);
    for (int i = 0; i < q; ++i) a(i, i) += 4.0;
    const la::DenseLu<double> lu(a);
    const la::Matrix b = random_matrix(q, q, 41);
    for (auto _ : state) benchmark::DoNotOptimize(lu.solve(b));
    state.SetComplexityN(q);
}
BENCHMARK(BM_DenseSubstituteBlocked)->Arg(8)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Complexity();

void BM_DenseSubstituteColumns(benchmark::State& state) {
    // The same q right-hand sides as one solve() call per column — what the
    // blocked kernel's cache reuse is worth.
    const int q = static_cast<int>(state.range(0));
    la::Matrix a = random_matrix(q, q, 37);
    for (int i = 0; i < q; ++i) a(i, i) += 4.0;
    const la::DenseLu<double> lu(a);
    const la::Matrix b = random_matrix(q, q, 41);
    for (auto _ : state)
        for (int j = 0; j < q; ++j) benchmark::DoNotOptimize(lu.solve(b.col(j)));
    state.SetComplexityN(q);
}
BENCHMARK(BM_DenseSubstituteColumns)->Arg(8)->Arg(20)->Arg(40)->Arg(60)->Arg(80)->Complexity();

void BM_SparseSolveBlocked(benchmark::State& state) {
    // The 8-wide lane-major blocked multi-RHS sparse substitution vs
    // BM_SparseSolveColumns below.
    const auto sys = make_net(static_cast<int>(state.range(0)));
    const sparse::SparseLu lu(sys.g0);
    la::Matrix b(sys.size(), 8);
    std::mt19937 rng(43);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (auto& v : b.raw()) v = d(rng);
    for (auto _ : state) benchmark::DoNotOptimize(lu.solve(b));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SparseSolveBlocked)->Arg(1000)->Arg(4000)->Complexity();

void BM_SparseSolveColumns(benchmark::State& state) {
    const auto sys = make_net(static_cast<int>(state.range(0)));
    const sparse::SparseLu lu(sys.g0);
    la::Matrix b(sys.size(), 8);
    std::mt19937 rng(43);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (auto& v : b.raw()) v = d(rng);
    for (auto _ : state)
        for (int j = 0; j < 8; ++j) benchmark::DoNotOptimize(lu.solve(b.col(j)));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SparseSolveColumns)->Arg(1000)->Arg(4000)->Complexity();

}  // namespace

int main(int argc, char** argv) {
    // Which arm of src/la/simd.h this binary runs — pairs in the JSON are
    // kernel-vs-naive within ONE arm; compare across arms by building with
    // -DVARMOR_SIMD=OFF and diffing the artifacts.
    benchmark::AddCustomContext("simd", la::simd::kActive ? "avx2" : "scalar");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
