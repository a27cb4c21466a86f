/**
 * @file
 * Tests for src/kernels: every reference kernel is checked against
 * dense linear algebra on random inputs, and every traced baseline kept
 * here (SpAdd, SpTC symbolic, the CP-ALS dense phase) is checked to (a)
 * compute the same result as the reference and (b) emit a sensible
 * micro-op mix. The baselines compiled from einsums are checked the same
 * way in plan_test.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "kernels/cpals.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/pagerank.hpp"
#include "kernels/smallsolve.hpp"
#include "kernels/spadd.hpp"
#include "kernels/spmm.hpp"
#include "kernels/spmspm.hpp"
#include "kernels/spmspv.hpp"
#include "kernels/spmv.hpp"
#include "kernels/sptc.hpp"
#include "kernels/spttm.hpp"
#include "kernels/spttv.hpp"
#include "kernels/tricount.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"

namespace tmu::kernels {
namespace {

using sim::MicroOp;
using sim::OpKind;
using sim::SimdConfig;
using tensor::CooTensor;
using tensor::CsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;

CooTensor
randomCoo2(Index rows, Index cols, Index entries, std::uint64_t seed)
{
    Rng rng(seed);
    CooTensor coo({rows, cols});
    for (Index e = 0; e < entries; ++e) {
        coo.push2(rng.nextIndex(0, rows), rng.nextIndex(0, cols),
                  rng.nextValue(0.5, 1.5));
    }
    coo.sortAndCombine();
    return coo;
}

DenseVector
randomVec(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    DenseVector v(n);
    for (Index i = 0; i < n; ++i)
        v[i] = rng.nextValue(-1.0, 1.0);
    return v;
}

DenseMatrix
randomDense(Index rows, Index cols, std::uint64_t seed)
{
    Rng rng(seed);
    DenseMatrix m(rows, cols);
    for (Index i = 0; i < rows; ++i) {
        for (Index j = 0; j < cols; ++j)
            m(i, j) = rng.nextValue(-1.0, 1.0);
    }
    return m;
}

/** Drain a trace, tallying op kinds. */
struct OpMix
{
    Index loads = 0, stores = 0, flopOps = 0, iops = 0, branches = 0;
    Index mispredictable = 0;
    std::uint64_t flops = 0;
    std::uint64_t bytesLoaded = 0;
};

OpMix
drain(sim::Trace t)
{
    OpMix mix;
    while (t.next()) {
        const MicroOp &op = t.value();
        switch (op.kind) {
          case OpKind::Load:
            ++mix.loads;
            mix.bytesLoaded += op.size;
            break;
          case OpKind::Store:
            ++mix.stores;
            break;
          case OpKind::Flop:
            ++mix.flopOps;
            mix.flops += op.flops;
            break;
          case OpKind::Iop:
            ++mix.iops;
            break;
          case OpKind::Branch:
            ++mix.branches;
            break;
          case OpKind::Halt:
            break;
        }
    }
    return mix;
}

// --- SpMV -----------------------------------------------------------------

TEST(Spmv, MatchesDense)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(40, 30, 200, 1));
    const DenseVector b = randomVec(30, 2);
    const DenseVector x = spmvRef(a, b);
    const DenseMatrix ad = tensor::csrToDense(a);
    for (Index i = 0; i < a.rows(); ++i) {
        Value want = 0.0;
        for (Index j = 0; j < a.cols(); ++j)
            want += ad(i, j) * b[j];
        EXPECT_NEAR(x[i], want, 1e-12);
    }
}

// --- SpMSpM ---------------------------------------------------------------

TEST(Spmspm, MatchesDense)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(25, 20, 120, 9));
    const CsrMatrix b = tensor::cooToCsr(randomCoo2(20, 30, 120, 10));
    const CsrMatrix z = spmspmRef(a, b);
    EXPECT_TRUE(z.valid());
    const DenseMatrix ad = tensor::csrToDense(a);
    const DenseMatrix bd = tensor::csrToDense(b);
    const DenseMatrix zd = tensor::csrToDense(z);
    for (Index i = 0; i < a.rows(); ++i) {
        for (Index j = 0; j < b.cols(); ++j) {
            Value want = 0.0;
            for (Index k = 0; k < a.cols(); ++k)
                want += ad(i, k) * bd(k, j);
            EXPECT_NEAR(zd(i, j), want, 1e-12);
        }
    }
}

TEST(Spmspm, SymbolicMatchesNumeric)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(30, 30, 200, 11));
    const CsrMatrix b = transposeCsr(a);
    const CsrMatrix z = spmspmRef(a, b);
    const std::vector<Index> rowNnz = spmspmRowNnz(a, b);
    for (Index i = 0; i < a.rows(); ++i)
        EXPECT_EQ(rowNnz[static_cast<size_t>(i)], z.rowNnz(i));
}

// --- SpAdd / SpKAdd ---------------------------------------------------------

TEST(Spadd, MatchesDense)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(30, 25, 150, 15));
    const CsrMatrix b = tensor::cooToCsr(randomCoo2(30, 25, 150, 16));
    const CsrMatrix z = spaddRef(a, b);
    EXPECT_TRUE(z.valid());
    const DenseMatrix zd = tensor::csrToDense(z);
    const DenseMatrix ad = tensor::csrToDense(a);
    const DenseMatrix bd = tensor::csrToDense(b);
    for (Index i = 0; i < 30; ++i) {
        for (Index j = 0; j < 25; ++j)
            EXPECT_NEAR(zd(i, j), ad(i, j) + bd(i, j), 1e-12);
    }
}

TEST(Spadd, TraceComputesReference)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(40, 30, 180, 17));
    const CsrMatrix b = tensor::cooToCsr(randomCoo2(40, 30, 180, 18));
    const CsrMatrix want = spaddRef(a, b);
    std::vector<Index> outIdxs, outRowNnz;
    std::vector<Value> outVals;
    const OpMix mix = drain(traceSpadd(a, b, outIdxs, outVals, outRowNnz,
                                       0, a.rows(), SimdConfig{512}));
    ASSERT_EQ(outIdxs.size(), static_cast<size_t>(want.nnz()));
    size_t q = 0;
    for (Index i = 0; i < want.rows(); ++i) {
        ASSERT_EQ(outRowNnz[static_cast<size_t>(i)], want.rowNnz(i));
        for (Index p = want.rowBegin(i); p < want.rowEnd(i); ++p, ++q) {
            EXPECT_EQ(outIdxs[q], want.idxs()[static_cast<size_t>(p)]);
            EXPECT_NEAR(outVals[q], want.vals()[static_cast<size_t>(p)],
                        1e-12);
        }
    }
    EXPECT_GT(mix.branches, want.nnz()); // merge is branch-dominated
}

TEST(Spkadd, MatchesSumOfParts)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(64, 40, 500, 19));
    const int k = 8;
    const auto parts = tensor::splitCyclic(a, k);
    const CsrMatrix z = spkaddRef(parts);
    EXPECT_TRUE(z.valid());
    // Row i of Z = sum over x of row i of part x = sum of A rows i*k+x.
    for (Index i = 0; i < z.rows(); ++i) {
        DenseVector want(a.cols(), 0.0);
        for (int x = 0; x < k; ++x) {
            const Index orig = i * k + x;
            if (orig >= a.rows())
                continue;
            for (Index p = a.rowBegin(orig); p < a.rowEnd(orig); ++p)
                want[a.idxs()[static_cast<size_t>(p)]] +=
                    a.vals()[static_cast<size_t>(p)];
        }
        const DenseMatrix zd = tensor::csrToDense(z);
        for (Index j = 0; j < a.cols(); ++j)
            EXPECT_NEAR(zd(i, j), want[j], 1e-12);
    }
}

// --- SpMSpV / SpMM ----------------------------------------------------------

TEST(Spmspv, MatchesSpmvOnScattered)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(30, 40, 180, 25));
    Rng rng(26);
    std::vector<Index> bi;
    std::vector<Value> bv;
    for (Index j = 0; j < 40; j += rng.nextIndex(1, 4)) {
        bi.push_back(j);
        bv.push_back(rng.nextValue(-1.0, 1.0));
    }
    const tensor::SparseVector b(40, bi, bv);
    DenseVector bd(40, 0.0);
    for (size_t t = 0; t < bi.size(); ++t)
        bd[bi[t]] = bv[t];
    const DenseVector want = spmvRef(a, bd);
    const DenseVector got = spmspvRef(a, b);
    for (Index i = 0; i < 30; ++i)
        EXPECT_NEAR(got[i], want[i], 1e-12);
}

TEST(Spmm, MatchesDense)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(20, 15, 80, 27));
    const DenseMatrix b = randomDense(15, 9, 28);
    const DenseMatrix z = spmmRef(a, b);
    const DenseMatrix ad = tensor::csrToDense(a);
    for (Index i = 0; i < 20; ++i) {
        for (Index j = 0; j < 9; ++j) {
            Value want = 0.0;
            for (Index k = 0; k < 15; ++k)
                want += ad(i, k) * b(k, j);
            EXPECT_NEAR(z(i, j), want, 1e-12);
        }
    }
}

// --- MTTKRP -----------------------------------------------------------------

TEST(Mttkrp, MatchesDirectSum)
{
    const CooTensor t = tensor::randomCooTensor({20, 15, 10}, 300, 0.0, 29);
    const DenseMatrix b = randomDense(15, 8, 30);
    const DenseMatrix c = randomDense(10, 8, 31);
    const DenseMatrix z = mttkrpRef(t, b, c, 0);
    DenseMatrix want(20, 8, 0.0);
    for (Index p = 0; p < t.nnz(); ++p) {
        for (Index j = 0; j < 8; ++j) {
            want(t.idx(0, p), j) +=
                t.val(p) * b(t.idx(1, p), j) * c(t.idx(2, p), j);
        }
    }
    for (Index i = 0; i < 20; ++i) {
        for (Index j = 0; j < 8; ++j)
            EXPECT_NEAR(z(i, j), want(i, j), 1e-12);
    }
}

class MttkrpModeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MttkrpModeProperty, AllModesMatchDirectSum)
{
    const int mode = GetParam();
    const CooTensor t = tensor::randomCooTensor({12, 14, 16}, 250, 0.0, 33);
    const int m1 = mode == 0 ? 1 : 0;
    const int m2 = mode == 2 ? 1 : 2;
    const DenseMatrix b = randomDense(t.dim(m1), 6, 34);
    const DenseMatrix c = randomDense(t.dim(m2), 6, 35);
    const DenseMatrix z = mttkrpRef(t, b, c, mode);
    DenseMatrix want(t.dim(mode), 6, 0.0);
    for (Index p = 0; p < t.nnz(); ++p) {
        for (Index j = 0; j < 6; ++j) {
            want(t.idx(mode, p), j) +=
                t.val(p) * b(t.idx(m1, p), j) * c(t.idx(m2, p), j);
        }
    }
    for (Index i = 0; i < want.rows(); ++i) {
        for (Index j = 0; j < 6; ++j)
            EXPECT_NEAR(z(i, j), want(i, j), 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, MttkrpModeProperty,
                         ::testing::Values(0, 1, 2));

// --- SpTC --------------------------------------------------------------------

TEST(Sptc, SymbolicMatchesBruteForce)
{
    const CooTensor ca = tensor::randomCooTensor({10, 8, 12}, 150, 0.0, 41);
    const CooTensor cb = tensor::randomCooTensor({12, 8, 9}, 150, 0.0, 42);
    const tensor::CsfTensor a = tensor::cooToCsf(ca);
    const tensor::CsfTensor b = tensor::cooToCsf(cb);

    // Brute force over COO entries.
    std::set<std::pair<Index, Index>> out;
    for (Index p = 0; p < ca.nnz(); ++p) {
        for (Index q = 0; q < cb.nnz(); ++q) {
            if (ca.idx(1, p) == cb.idx(1, q) &&
                ca.idx(2, p) == cb.idx(0, q)) {
                out.insert({ca.idx(0, p), cb.idx(2, q)});
            }
        }
    }
    EXPECT_EQ(sptcSymbolicRef(a, b), static_cast<Index>(out.size()));
}

TEST(Sptc, TraceMatchesReference)
{
    const CooTensor ca = tensor::randomCooTensor({14, 9, 11}, 200, 0.0, 43);
    const CooTensor cb = tensor::randomCooTensor({11, 9, 13}, 200, 0.0, 44);
    const tensor::CsfTensor a = tensor::cooToCsf(ca);
    const tensor::CsfTensor b = tensor::cooToCsf(cb);
    const std::vector<Index> want = sptcSymbolicRowsRef(a, b);
    std::vector<Index> got(static_cast<size_t>(a.numNodes(0)), 0);
    const OpMix mix = drain(
        traceSptcSymbolic(a, b, got, 0, a.numNodes(0), SimdConfig{512}));
    EXPECT_EQ(got, want);
    EXPECT_GT(mix.branches, 0);
    EXPECT_EQ(mix.flopOps, 0); // symbolic phase: no FP work
}

// --- PageRank ----------------------------------------------------------------

TEST(Pagerank, MatchesDensePowerIteration)
{
    const CsrMatrix g = tensor::rmatGraph(7, 6, 45);
    PageRankConfig cfg;
    cfg.iterations = 10;
    const DenseVector x = pagerankRef(g, cfg);

    // Same Jacobi recurrence evaluated on the dense adjacency.
    const Index n = g.rows();
    const DenseMatrix d = tensor::csrToDense(g);
    DenseVector outdeg(n, 0.0);
    for (Index j = 0; j < n; ++j) {
        Index deg = 0;
        for (Index i = 0; i < n; ++i)
            deg += d(i, j) != 0.0;
        outdeg[j] = static_cast<Value>(std::max<Index>(1, deg));
    }
    const double base = (1.0 - cfg.damping) / static_cast<double>(n);
    DenseVector want(n, 1.0 / static_cast<double>(n)), next(n);
    for (int it = 0; it < cfg.iterations; ++it) {
        for (Index i = 0; i < n; ++i) {
            Value sum = 0.0;
            for (Index j = 0; j < n; ++j)
                sum += d(i, j) * want[j] / outdeg[j];
            next[i] = base + cfg.damping * sum;
        }
        std::swap(want, next);
    }
    for (Index i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], want[i], 1e-10);

    // Ranks are positive and bounded by total mass.
    double total = 0.0;
    for (Index i = 0; i < n; ++i) {
        EXPECT_GT(x[i], 0.0);
        total += x[i];
    }
    EXPECT_LE(total, 1.0 + 1e-9); // dangling RMAT vertices leak mass
}

// --- TriangleCount -------------------------------------------------------------

TEST(Tricount, CountsKnownGraph)
{
    // Complete graph K4 has 4 triangles.
    CooTensor coo({4, 4});
    for (Index i = 0; i < 4; ++i) {
        for (Index j = 0; j < 4; ++j) {
            if (i != j)
                coo.push2(i, j, 1.0);
        }
    }
    coo.sortAndCombine();
    const CsrMatrix l = tensor::lowerTriangle(tensor::cooToCsr(coo));
    EXPECT_EQ(tricountRef(l), 4u);
}

TEST(Tricount, MatchesBruteForce)
{
    const CsrMatrix g = tensor::rmatGraph(6, 4, 49);
    const CsrMatrix l = tensor::lowerTriangle(g);
    // Brute force on the dense adjacency.
    const DenseMatrix d = tensor::csrToDense(g);
    std::uint64_t want = 0;
    const Index n = g.rows();
    for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < i; ++j) {
            if (d(i, j) == 0.0)
                continue;
            for (Index k = 0; k < j; ++k) {
                if (d(i, k) != 0.0 && d(j, k) != 0.0)
                    ++want;
            }
        }
    }
    EXPECT_EQ(tricountRef(l), want);
}

// --- Small solve / CP-ALS --------------------------------------------------------

TEST(SmallSolve, GramMatchesDefinition)
{
    const DenseMatrix a = randomDense(10, 4, 53);
    const DenseMatrix g = gramMatrix(a);
    for (Index p = 0; p < 4; ++p) {
        for (Index q = 0; q < 4; ++q) {
            Value want = 0.0;
            for (Index i = 0; i < 10; ++i)
                want += a(i, p) * a(i, q);
            EXPECT_NEAR(g(p, q), want, 1e-12);
        }
    }
}

TEST(SmallSolve, CholeskySolvesSpdSystem)
{
    // Build an SPD gram from a random tall matrix, a known X, and check
    // the solver recovers X from RHS = X * G.
    const DenseMatrix basis = randomDense(20, 5, 55);
    const DenseMatrix g = gramMatrix(basis);
    const DenseMatrix x = randomDense(7, 5, 56);
    DenseMatrix rhs(7, 5, 0.0);
    for (Index i = 0; i < 7; ++i) {
        for (Index j = 0; j < 5; ++j) {
            for (Index k = 0; k < 5; ++k)
                rhs(i, j) += x(i, k) * g(k, j);
        }
    }
    choleskySolveRows(g, rhs);
    for (Index i = 0; i < 7; ++i) {
        for (Index j = 0; j < 5; ++j)
            EXPECT_NEAR(rhs(i, j), x(i, j), 1e-8);
    }
}

/** Full Frobenius reconstruction error (ALS's actual objective). */
double
fullFitError(const CooTensor &t, const CpFactors &f)
{
    const Index rank = f[0].cols();
    double err = 0.0;
    for (Index i = 0; i < t.dim(0); ++i) {
        for (Index j = 0; j < t.dim(1); ++j) {
            for (Index k = 0; k < t.dim(2); ++k) {
                Value model = 0.0;
                for (Index r = 0; r < rank; ++r)
                    model += f[0](i, r) * f[1](j, r) * f[2](k, r);
                const Value d = -model; // value filled below if stored
                err += d * d;
            }
        }
    }
    // Correct the stored-nonzero cells: replace (0 - m)^2 by (v - m)^2.
    for (Index p = 0; p < t.nnz(); ++p) {
        Value model = 0.0;
        for (Index r = 0; r < rank; ++r) {
            model += f[0](t.idx(0, p), r) * f[1](t.idx(1, p), r) *
                     f[2](t.idx(2, p), r);
        }
        const Value v = t.val(p);
        err += (v - model) * (v - model) - model * model;
    }
    return err;
}

TEST(Cpals, FullObjectiveDecreasesMonotonically)
{
    const CooTensor t = tensor::randomCooTensor({12, 10, 8}, 200, 0.0, 57);
    CpalsConfig cfg;
    cfg.rank = 6;
    CpFactors f = cpalsInit(t, cfg);
    double prev = fullFitError(t, f);
    for (int it = 0; it < 3; ++it) {
        for (int m = 0; m < 3; ++m)
            cpalsUpdateMode(t, f, m);
        const double cur = fullFitError(t, f);
        EXPECT_LE(cur, prev + 1e-9) << "iteration " << it;
        prev = cur;
    }
}

TEST(Cpals, UpdateModeMatchesManualSolve)
{
    const CooTensor t = tensor::randomCooTensor({10, 8, 6}, 120, 0.0, 59);
    CpalsConfig cfg;
    cfg.rank = 4;
    CpFactors f = cpalsInit(t, cfg);
    const DenseMatrix m = mttkrpRef(t, f[1], f[2], 0);
    DenseMatrix g = gramMatrix(f[1]);
    hadamardInPlace(g, gramMatrix(f[2]));
    DenseMatrix want = m;
    choleskySolveRows(g, want);

    cpalsUpdateMode(t, f, 0);
    for (Index i = 0; i < want.rows(); ++i) {
        for (Index j = 0; j < want.cols(); ++j)
            EXPECT_NEAR(f[0](i, j), want(i, j), 1e-10);
    }
}

TEST(Cpals, DenseTraceEmitsExpectedFlopScale)
{
    const OpMix mix = drain(traceCpalsDense(16, 100, SimdConfig{512}));
    // Gram: 100*16*16*2; chol: 16^3/3; solves: 100*2*16*16.
    const auto want = static_cast<std::uint64_t>(
        100 * 16 * 16 * 2 + 16 * 16 * 16 / 3 + 100 * 2 * 16 * 16);
    EXPECT_NEAR(static_cast<double>(mix.flops),
                static_cast<double>(want),
                static_cast<double>(want) * 0.05);
}

// --- Edge cases surfaced by the fuzzing harness ---------------------------
//
// The adversarial shape classes in src/testing exercise degenerate
// inputs the random generators above never produce: zero stored
// entries, rank-1 tensors, extent-1 modes. Pin the expected behavior
// here so it cannot regress without a tier-1 failure.

TEST(Spttv, EmptyTensorYieldsEmptyResult)
{
    const CooTensor coo(std::vector<Index>{3, 4, 5});
    const tensor::CsfTensor a = tensor::cooToCsf(coo);
    const SpttvResult z = spttvRef(a, DenseVector(5, 1.0));
    EXPECT_TRUE(z.coords.empty());
    EXPECT_TRUE(z.vals.empty());
}

TEST(Spttv, SingleEntryContractsToOneCoordinate)
{
    CooTensor coo(std::vector<Index>{1, 1, 1});
    coo.push({0, 0, 0}, 2.5);
    coo.sortAndCombine();
    DenseVector b(1);
    b[0] = -2.0;
    const SpttvResult z = spttvRef(tensor::cooToCsf(coo), b);
    ASSERT_EQ(z.coords.size(), 1u);
    EXPECT_EQ(z.coords[0], (Coord2{0, 0}));
    EXPECT_EQ(z.vals[0], 2.5 * -2.0);
}

TEST(Spttv, EmptyFibersAreSkippedNotEmitted)
{
    // Entries only at i = 0 and i = 2: the (i, j) output must not
    // contain coordinates for the empty slice i = 1.
    CooTensor coo(std::vector<Index>{3, 2, 2});
    coo.push({0, 1, 0}, 1.0);
    coo.push({2, 0, 1}, 3.0);
    coo.sortAndCombine();
    DenseVector b(2);
    b[0] = 10.0;
    b[1] = 100.0;
    const SpttvResult z = spttvRef(tensor::cooToCsf(coo), b);
    ASSERT_EQ(z.coords.size(), 2u);
    EXPECT_EQ(z.coords[0], (Coord2{0, 1}));
    EXPECT_EQ(z.vals[0], 10.0);
    EXPECT_EQ(z.coords[1], (Coord2{2, 0}));
    EXPECT_EQ(z.vals[1], 300.0);
}

TEST(Spttm, EmptyTensorYieldsNoRows)
{
    const CooTensor coo(std::vector<Index>{2, 3, 4});
    const SpttmResult z =
        spttmRef(tensor::cooToCsf(coo), randomDense(4, 3, 61));
    EXPECT_TRUE(z.coords.empty());
    EXPECT_EQ(z.rows.rows(), 0);
}

TEST(Spttm, SingleColumnMatrixMatchesSpttv)
{
    // With an L = 1 factor matrix, SpTTM degenerates to SpTTV.
    const CooTensor coo =
        tensor::randomCooTensor({6, 5, 4}, 30, 0.0, 63);
    const tensor::CsfTensor a = tensor::cooToCsf(coo);
    DenseMatrix b(4, 1, 0.0);
    DenseVector bv(4);
    for (Index k = 0; k < 4; ++k) {
        b(k, 0) = 0.5 + static_cast<Value>(k);
        bv[k] = b(k, 0);
    }
    const SpttmResult zm = spttmRef(a, b);
    const SpttvResult zv = spttvRef(a, bv);
    ASSERT_EQ(zm.coords.size(), zv.coords.size());
    for (size_t t = 0; t < zv.coords.size(); ++t) {
        EXPECT_EQ(zm.coords[t], zv.coords[t]);
        EXPECT_DOUBLE_EQ(zm.rows(static_cast<Index>(t), 0),
                         zv.vals[t]);
    }
}

TEST(Cpals, ExtentOneModeConverges)
{
    // A 1 x J x K tensor is a matrix in disguise; every gram stays SPD
    // (the init adds ridge regularization) and one sweep must run
    // without dying on the degenerate mode.
    CooTensor coo(std::vector<Index>{1, 5, 4});
    Rng rng(65);
    for (int e = 0; e < 10; ++e) {
        coo.push({0, rng.nextIndex(0, 5), rng.nextIndex(0, 4)},
                 rng.nextValue(0.5, 1.5));
    }
    coo.sortAndCombine();
    CpalsConfig cfg;
    cfg.rank = 2;
    cfg.iterations = 2;
    const CpFactors f = cpalsRef(coo, cfg);
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0].rows(), 1);
    for (const auto &m : f) {
        for (Index i = 0; i < m.rows(); ++i) {
            for (Index j = 0; j < m.cols(); ++j)
                EXPECT_TRUE(std::isfinite(m(i, j)));
        }
    }
}

TEST(Cpals, RankOneRecoversARankOneTensor)
{
    // Build an exactly rank-1 tensor and check ALS reproduces every
    // stored entry near-exactly.
    const Index di = 4, dj = 3, dk = 5;
    CooTensor coo(std::vector<Index>{di, dj, dk});
    for (Index i = 0; i < di; ++i) {
        for (Index j = 0; j < dj; ++j) {
            for (Index k = 0; k < dk; ++k) {
                const Value v = (1.0 + static_cast<Value>(i)) *
                                (2.0 - 0.3 * static_cast<Value>(j)) *
                                (0.5 + 0.2 * static_cast<Value>(k));
                coo.push({i, j, k}, v);
            }
        }
    }
    coo.sortAndCombine();
    CpalsConfig cfg;
    cfg.rank = 1;
    cfg.iterations = 12;
    cfg.seed = 67;
    const CpFactors f = cpalsRef(coo, cfg);
    for (Index p = 0; p < coo.nnz(); ++p) {
        const Value model = f[0](coo.idx(0, p), 0) *
                            f[1](coo.idx(1, p), 0) *
                            f[2](coo.idx(2, p), 0);
        EXPECT_NEAR(model, coo.val(p), 1e-6);
    }
}

TEST(Cpals, AllZeroValuesStayFinite)
{
    // Stored-but-zero entries: MTTKRP outputs are all zero, and only
    // the init regularization keeps the solves well-posed.
    CooTensor coo(std::vector<Index>{3, 3, 3});
    coo.push({0, 1, 2}, 0.0);
    coo.push({2, 0, 1}, 0.0);
    coo.sortAndCombine();
    CpalsConfig cfg;
    cfg.rank = 2;
    cfg.iterations = 2;
    const CpFactors f = cpalsRef(coo, cfg);
    for (const auto &m : f) {
        for (Index i = 0; i < m.rows(); ++i) {
            for (Index j = 0; j < m.cols(); ++j)
                EXPECT_TRUE(std::isfinite(m(i, j)));
        }
    }
}

} // namespace
} // namespace tmu::kernels
