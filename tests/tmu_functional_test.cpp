/**
 * @file
 * Tests for the TMU program builder and functional interpreter: the
 * paper's Fig. 8 SpMV program over the Fig. 1 matrix (the Fig. 9
 * step-by-step example), merging semantics against the software merge
 * iterators, and the sizing/area analytical models.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "sim/addrspace.hpp"
#include "kernels/spmv.hpp"
#include "sim/microop.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tmu/area.hpp"
#include "tmu/functional.hpp"
#include "tmu/program.hpp"
#include "tmu/sizing.hpp"

namespace tmu::engine {
namespace {

using tensor::CooTensor;
using tensor::CsrMatrix;
using tensor::DenseVector;

/** Callback ids used across the tests. */
enum Cb : int { kRi = 1, kRe = 2, kAux = 3 };

/** The paper's Fig. 1 matrix. */
CsrMatrix
fig1Matrix()
{
    CooTensor coo({4, 4});
    coo.push2(0, 0, 1.0);
    coo.push2(0, 2, 2.0);
    coo.push2(1, 1, 3.0);
    coo.push2(3, 0, 4.0);
    coo.push2(3, 3, 5.0);
    coo.sortAndCombine();
    return tensor::cooToCsr(coo);
}

/**
 * Build the Fig. 8 program: SpMV P1, inner-loop vectorized over
 * @p lanes lanes (paper uses 2 in the walkthrough, 8 in the system).
 */
TmuProgram
spmvP1Program(const CsrMatrix &a, const DenseVector &b, int lanes)
{
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::BCast);
    const int l1 = p.addLayer(GroupMode::LockStep);

    // Load and broadcast CSR row pointers.
    const TuRef rowFbrt = p.dnsFbrT(l0, 0, 0, a.rows());
    const StreamRef rowPtbs = p.addMemStream(
        rowFbrt, a.ptrs().data(), ElemType::I64, {}, "row_ptbs");
    const StreamRef rowPtes = p.addMemStream(
        rowFbrt, a.ptrs().data() + 1, ElemType::I64, {}, "row_ptes");

    // Lockstep lanes, lane r loading elements r, r+lanes, ...
    std::vector<StreamRef> nnzVals, vecVals;
    for (int r = 0; r < lanes; ++r) {
        const TuRef colFbrt =
            p.rngFbrT(l1, r, rowPtbs, rowPtes, r, lanes);
        const StreamRef colIdxs = p.addMemStream(
            colFbrt, a.idxs().data(), ElemType::I64, {}, "col_idxs");
        nnzVals.push_back(p.addMemStream(colFbrt, a.vals().data(),
                                         ElemType::F64, {}, "nnz_vals"));
        vecVals.push_back(p.addMemStream(colFbrt, b.data(),
                                         ElemType::F64, colIdxs,
                                         "vec_vals"));
    }
    const int nnzOp = p.addVecStream(l1, nnzVals, ElemType::F64, "nnz");
    const int vecOp = p.addVecStream(l1, vecVals, ElemType::F64, "vec");
    p.addCallback(l1, CallbackEvent::GroupIte, kRi, {nnzOp, vecOp});
    p.addCallback(l1, CallbackEvent::GroupEnd, kRe, {});
    return p;
}

/** Execute the SpMV record stream the way the Fig. 6 callbacks do. */
DenseVector
runSpmvCallbacks(const TmuProgram &p, Index rows)
{
    DenseVector x(rows);
    Index row = 0;
    Value sum = 0.0;
    interpret(p, [&](const OutqRecord &rec) {
        if (rec.callbackId == kRi) {
            for (size_t i = 0; i < rec.operands[0].size(); ++i)
                sum += rec.f64(0, static_cast<int>(i)) *
                       rec.f64(1, static_cast<int>(i));
        } else if (rec.callbackId == kRe) {
            x[row++] = sum;
            sum = 0.0;
        }
    });
    EXPECT_EQ(row, rows);
    return x;
}

TEST(Functional, Fig9SpmvWalkthrough)
{
    // Two-lane design over the Fig. 1 matrix, exactly the paper's
    // step-by-step example.
    const CsrMatrix a = fig1Matrix();
    DenseVector b(4);
    for (Index i = 0; i < 4; ++i)
        b[i] = static_cast<Value>(i + 1);
    const TmuProgram p = spmvP1Program(a, b, 2);

    const auto records = interpretToVector(p);
    // Row 0 has 2 nnz -> one lockstep GITE with both lanes, then GEND.
    // Row 1 has 1 nnz -> one GITE single lane. Row 2 empty -> GEND
    // only. Row 3 has 2 nnz -> one GITE.
    std::vector<std::pair<int, int>> shape; // (cbId, laneCount)
    for (const auto &r : records)
        shape.push_back({r.callbackId, r.mask.count()});
    const std::vector<std::pair<int, int>> want = {
        {kRi, 2}, {kRe, 2}, // row 0 (GEND mask = both lanes active)
        {kRi, 1}, {kRe, 2}, // row 1
        {kRe, 2},           // row 2: empty fiber, end only
        {kRi, 2}, {kRe, 2}, // row 3
    };
    EXPECT_EQ(shape, want);

    // And the marshaled values compute the right SpMV.
    const DenseVector x = runSpmvCallbacks(p, 4);
    const DenseVector ref = kernels::spmvRef(a, b);
    for (Index i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(x[i], ref[i]);
}

class SpmvFunctionalProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SpmvFunctionalProperty, MatchesReferenceOnRandomMatrices)
{
    const int lanes = std::get<0>(GetParam());
    const int seed = std::get<1>(GetParam());
    Rng rng(static_cast<std::uint64_t>(seed));
    tensor::CsrGenConfig cfg;
    cfg.rows = 60;
    cfg.cols = 50;
    cfg.nnzPerRow = 5;
    cfg.seed = static_cast<std::uint64_t>(seed);
    const CsrMatrix a = tensor::randomCsr(cfg);
    DenseVector b(a.cols());
    for (Index i = 0; i < b.size(); ++i)
        b[i] = rng.nextValue(-1.0, 1.0);

    const TmuProgram p = spmvP1Program(a, b, lanes);
    const DenseVector x = runSpmvCallbacks(p, a.rows());
    const DenseVector ref = kernels::spmvRef(a, b);
    for (Index i = 0; i < a.rows(); ++i)
        EXPECT_NEAR(x[i], ref[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    LanesAndSeeds, SpmvFunctionalProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 2, 3)));

TEST(Functional, DisjunctiveMergeMatchesSoftwareMerge)
{
    // Two sorted fibers in two lanes, DisjMrg layer: record stream
    // must match the software disjunctiveMerge exactly (Fig. 2).
    const std::vector<Index> ia = {0, 2, 3, 7};
    const std::vector<Value> va = {1, 2, 3, 4};
    const std::vector<Index> ib = {0, 1, 3, 9};
    const std::vector<Value> vb = {10, 20, 30, 40};

    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::DisjMrg);
    const TuRef ta = p.dnsFbrT(l0, 0, 0, static_cast<Index>(ia.size()));
    const StreamRef ka =
        p.addMemStream(ta, ia.data(), ElemType::I64, {}, "idxA");
    const StreamRef wa =
        p.addMemStream(ta, va.data(), ElemType::F64, {}, "valA");
    p.setMergeKey(ta, ka);
    const TuRef tb = p.dnsFbrT(l0, 1, 0, static_cast<Index>(ib.size()));
    const StreamRef kb =
        p.addMemStream(tb, ib.data(), ElemType::I64, {}, "idxB");
    const StreamRef wb =
        p.addMemStream(tb, vb.data(), ElemType::F64, {}, "valB");
    p.setMergeKey(tb, kb);

    const int keyOp = p.addVecStream(l0, {ka, kb}, ElemType::I64, "key");
    const int valOp = p.addVecStream(l0, {wa, wb}, ElemType::F64, "val");
    p.addCallback(l0, CallbackEvent::GroupIte, kRi,
                  {keyOp, valOp, kMskOperand});

    std::map<Index, Value> got;
    std::vector<std::uint64_t> masks;
    interpret(p, [&](const OutqRecord &rec) {
        if (rec.callbackId != kRi)
            return;
        Value sum = 0.0;
        for (int i = 0; i < rec.mask.count(); ++i)
            sum += rec.f64(1, i);
        got[rec.i64(0, 0)] = sum;
        masks.push_back(rec.operands[2][0]);
    });

    const std::map<Index, Value> want = {{0, 11.0}, {1, 20.0},
                                         {2, 2.0},  {3, 33.0},
                                         {7, 4.0},  {9, 40.0}};
    EXPECT_EQ(got, want);
    const std::vector<std::uint64_t> wantMasks = {0b11, 0b10, 0b01,
                                                  0b11, 0b01, 0b10};
    EXPECT_EQ(masks, wantMasks);
}

TEST(Functional, ConjunctiveMergeIntersects)
{
    const std::vector<Index> ia = {0, 2, 3, 7};
    const std::vector<Value> va = {1, 2, 3, 4};
    const std::vector<Index> ib = {0, 1, 3, 9};
    const std::vector<Value> vb = {10, 20, 30, 40};

    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::ConjMrg);
    const TuRef ta = p.dnsFbrT(l0, 0, 0, 4);
    const StreamRef ka = p.addMemStream(ta, ia.data(), ElemType::I64);
    const StreamRef wa = p.addMemStream(ta, va.data(), ElemType::F64);
    p.setMergeKey(ta, ka);
    const TuRef tb = p.dnsFbrT(l0, 1, 0, 4);
    const StreamRef kb = p.addMemStream(tb, ib.data(), ElemType::I64);
    const StreamRef wb = p.addMemStream(tb, vb.data(), ElemType::F64);
    p.setMergeKey(tb, kb);

    const int keyOp = p.addVecStream(l0, {ka, kb}, ElemType::I64);
    const int valOp = p.addVecStream(l0, {wa, wb}, ElemType::F64);
    p.addCallback(l0, CallbackEvent::GroupIte, kRi, {keyOp, valOp});

    std::map<Index, Value> got;
    interpret(p, [&](const OutqRecord &rec) {
        if (rec.callbackId == kRi)
            got[rec.i64(0, 0)] = rec.f64(1, 0) * rec.f64(1, 1);
    });
    const std::map<Index, Value> want = {{0, 10.0}, {3, 90.0}};
    EXPECT_EQ(got, want);
}

TEST(Functional, LinMapLdrFwdStreams)
{
    // One dense layer producing i in [0, 4); streams transform it.
    std::vector<Value> data = {5, 6, 7, 8, 9, 10, 11, 12};

    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::BCast);
    const TuRef t0 = p.dnsFbrT(l0, 0, 0, 4);
    const StreamRef lin = p.addLinStream(t0, 2.0, 1.0); // 2i+1
    const StreamRef mapped =
        p.addMapStream(t0, {3, 1, 0, 2});               // perm
    const StreamRef ldr = p.addLdrStream(t0, data.data());
    const StreamRef memLin =
        p.addMemStream(t0, data.data(), ElemType::F64, lin);

    const int linOp = p.addVecStream(l0, {lin}, ElemType::I64);
    const int mapOp = p.addVecStream(l0, {mapped}, ElemType::I64);
    const int ldrOp = p.addVecStream(l0, {ldr}, ElemType::I64);
    const int memOp = p.addVecStream(l0, {memLin}, ElemType::F64);
    p.addCallback(l0, CallbackEvent::GroupIte, kRi,
                  {linOp, mapOp, ldrOp, memOp});

    // A second layer forwarding layer-0's lin value along a fiber.
    const int l1 = p.addLayer(GroupMode::Single);
    const TuRef t1 = p.idxFbrT(l1, 0, p.iteStream(t0), 2);
    const StreamRef fwd = p.addFwdStream(t1, lin);
    const int fwdOp = p.addVecStream(l1, {fwd}, ElemType::I64);
    p.addCallback(l1, CallbackEvent::GroupIte, kAux, {fwdOp});

    std::vector<Index> lins, maps, fwds;
    std::vector<Addr> ldrs;
    std::vector<Value> mems;
    interpret(p, [&](const OutqRecord &rec) {
        if (rec.callbackId == kRi) {
            lins.push_back(rec.i64(0, 0));
            maps.push_back(rec.i64(1, 0));
            ldrs.push_back(
                static_cast<Addr>(rec.operands[2][0]));
            mems.push_back(rec.f64(3, 0));
        } else if (rec.callbackId == kAux) {
            fwds.push_back(rec.i64(0, 0));
        }
    });

    EXPECT_EQ(lins, (std::vector<Index>{1, 3, 5, 7}));
    EXPECT_EQ(maps, (std::vector<Index>{3, 1, 0, 2}));
    EXPECT_EQ(ldrs[0], sim::addrOf(data.data(), 0));
    EXPECT_EQ(ldrs[2], sim::addrOf(data.data(), 2));
    EXPECT_EQ(mems, (std::vector<Value>{6, 8, 10, 12})); // data[2i+1]
    // fwd repeats each lin value along the 2-element inner fiber.
    EXPECT_EQ(fwds, (std::vector<Index>{1, 1, 3, 3, 5, 5, 7, 7}));
}

TEST(Functional, KeepModeSelectsLane)
{
    const std::vector<Index> ia = {1, 2, 3};
    const std::vector<Index> ib = {4, 5, 6};
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::Keep, 1);
    const TuRef ta = p.dnsFbrT(l0, 0, 0, 3);
    p.addMemStream(ta, ia.data(), ElemType::I64);
    const TuRef tb = p.dnsFbrT(l0, 1, 0, 3);
    const StreamRef sb = p.addMemStream(tb, ib.data(), ElemType::I64);
    const int op = p.addVecStream(l0, {sb, sb}, ElemType::I64);
    p.addCallback(l0, CallbackEvent::GroupIte, kRi, {op});

    std::vector<Index> got;
    interpret(p, [&](const OutqRecord &rec) {
        got.push_back(rec.i64(0, 0));
    });
    EXPECT_EQ(got, (std::vector<Index>{4, 5, 6}));
}

TEST(Functional, ValidationCatchesBadPrograms)
{
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::DisjMrg);
    p.dnsFbrT(l0, 0, 0, 4); // merge layer with a single lane
    EXPECT_DEATH(interpretToVector(p), "merging needs at least 2");
}

TEST(Sizing, RightLayersGetDeeperQueues)
{
    const std::vector<Index> dummyPtrs(128, 0);
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::BCast);
    const TuRef t0 = p.dnsFbrT(l0, 0, 0, 16);
    const StreamRef s0 =
        p.addMemStream(t0, dummyPtrs.data(), ElemType::I64);
    const StreamRef s1 =
        p.addMemStream(t0, dummyPtrs.data() + 1, ElemType::I64);
    p.setExpectedFiberLen(t0, 4);
    const int l1 = p.addLayer(GroupMode::Single);
    const TuRef t1 = p.rngFbrT(l1, 0, s0, s1);
    p.addMemStream(t1, dummyPtrs.data(), ElemType::F64);
    p.setExpectedFiberLen(t1, 64);

    const QueuePlan plan = planQueues(p, 2048);
    ASSERT_EQ(plan.depthPerLayer.size(), 2u);
    EXPECT_GT(plan.depth(1), plan.depth(0));
    EXPECT_GE(plan.depth(0), 2);

    // More storage -> deeper queues.
    const QueuePlan big = planQueues(p, 8192);
    EXPECT_GT(big.depth(1), plan.depth(1));
}

TEST(Area, MatchesPaperCalibrationPoint)
{
    const AreaEstimate a = estimateArea(8, 2048);
    EXPECT_NEAR(a.laneMm2, 0.0080, 1e-4);
    EXPECT_NEAR(a.totalMm2, 0.0704, 1e-3);
    EXPECT_NEAR(a.pctOfN1Core, 1.52, 0.05);
    EXPECT_FALSE(describeArea(a).empty());
}

TEST(Area, ScalesWithLanesAndStorage)
{
    const AreaEstimate small = estimateArea(4, 1024);
    const AreaEstimate big = estimateArea(8, 4096);
    EXPECT_LT(small.totalMm2, big.totalMm2);
    EXPECT_LT(small.laneMm2, big.laneMm2);
}

TEST(Program, DescribeMentionsStructure)
{
    const CsrMatrix a = fig1Matrix();
    DenseVector b(4, 1.0);
    const TmuProgram p = spmvP1Program(a, b, 2);
    const std::string d = p.describe();
    EXPECT_NE(d.find("BCast"), std::string::npos);
    EXPECT_NE(d.find("LockStep"), std::string::npos);
    EXPECT_NE(d.find("Rng"), std::string::npos);
    EXPECT_NE(d.find("GITE->cb1"), std::string::npos);
}

} // namespace
} // namespace tmu::engine
