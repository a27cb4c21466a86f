/**
 * @file
 * Edge-case and integration coverage beyond the per-module suites:
 * empty/degenerate tensors through every converter and kernel, dirty
 * writeback propagation through the hierarchy, outQ source semantics,
 * and container corner cases.
 */

#include <gtest/gtest.h>

#include "common/circular_queue.hpp"
#include "kernels/spadd.hpp"
#include "kernels/spmspm.hpp"
#include "kernels/spmv.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tmu/functional.hpp"
#include "tmu/outq.hpp"
#include "workloads/wl_spmv.hpp"

namespace tmu {
namespace {

using tensor::CooTensor;
using tensor::CsrMatrix;
using tensor::DenseVector;

/** The compiled SpMV P1 plan over all of @p a. */
plan::PlanSpec
spmvSpec(const CsrMatrix &a, const DenseVector &b, DenseVector &x,
         int lanes)
{
    plan::frontend::EinsumBindings fb;
    fb.csr["A"] = &a;
    fb.vec["B"] = &b;
    fb.outVec = &x;
    plan::frontend::CompileOptions fo;
    fo.lanes = lanes;
    return plan::frontend::compileEinsum(workloads::SpmvWorkload::kEinsum,
                                         fb, fo)
        .valueOrFatal();
}

// --- Degenerate tensors ------------------------------------------------------

CsrMatrix
emptyMatrix(Index rows, Index cols)
{
    return CsrMatrix(rows, cols,
                     std::vector<Index>(static_cast<size_t>(rows) + 1, 0),
                     {}, {});
}

TEST(Degenerate, EmptyMatrixThroughConverters)
{
    const CsrMatrix a = emptyMatrix(5, 7);
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(a.nnz(), 0);

    const auto d = tensor::csrToDcsr(a);
    EXPECT_EQ(d.numStoredRows(), 0);
    const auto back = tensor::dcsrToCsr(d);
    EXPECT_EQ(back.nnz(), 0);
    EXPECT_EQ(back.rows(), 5);

    const auto t = tensor::transposeCsr(a);
    EXPECT_EQ(t.rows(), 7);
    EXPECT_EQ(t.nnz(), 0);

    const auto coo = tensor::csrToCoo(a);
    EXPECT_EQ(coo.nnz(), 0);
}

TEST(Degenerate, EmptyMatrixThroughKernels)
{
    const CsrMatrix a = emptyMatrix(6, 6);
    const DenseVector b(6, 1.0);
    const DenseVector x = kernels::spmvRef(a, b);
    for (Index i = 0; i < 6; ++i)
        EXPECT_EQ(x[i], 0.0);

    const CsrMatrix z = kernels::spmspmRef(a, a);
    EXPECT_EQ(z.nnz(), 0);

    const CsrMatrix s = kernels::spaddRef(a, a);
    EXPECT_EQ(s.nnz(), 0);
}

TEST(Degenerate, SingleElementMatrix)
{
    CooTensor coo({1, 1});
    coo.push2(0, 0, 3.0);
    coo.sortAndCombine();
    const CsrMatrix a = tensor::cooToCsr(coo);
    const DenseVector b(1, 2.0);
    EXPECT_DOUBLE_EQ(kernels::spmvRef(a, b)[0], 6.0);
    const CsrMatrix z = kernels::spmspmRef(a, a);
    EXPECT_DOUBLE_EQ(z.at(0, 0), 9.0);
}

TEST(Degenerate, SpmvTraceOnEmptyMatrix)
{
    const CsrMatrix a = emptyMatrix(4, 4);
    const DenseVector b(4, 1.0);
    DenseVector x(4, -1.0);
    auto t = plan::lowerTrace(spmvSpec(a, b, x, 8), {},
                              sim::SimdConfig{512});
    int ops = 0;
    while (t.next())
        ++ops;
    EXPECT_GT(ops, 0); // ptr loads + stores still happen
    for (Index i = 0; i < 4; ++i)
        EXPECT_EQ(x[i], 0.0);
}

TEST(Degenerate, TmuSpmvOnEmptyRows)
{
    // A matrix whose odd rows are empty: GEND-only groups everywhere.
    CooTensor coo({8, 8});
    for (Index r = 0; r < 8; r += 2)
        coo.push2(r, r, 1.0);
    coo.sortAndCombine();
    const CsrMatrix a = tensor::cooToCsr(coo);
    const DenseVector b(8, 2.0);

    Index rows = 0;
    Value sum = 0.0;
    DenseVector x(8, -1.0);
    const plan::PlanSpec ps = spmvSpec(a, b, x, 4);
    const int ri = ps.callbackId("ri");
    const int re = ps.callbackId("re");
    engine::interpret(plan::lowerProgram(ps),
                      [&](const engine::OutqRecord &rec) {
        if (rec.callbackId == ri) {
            for (size_t i = 0; i < rec.operands[0].size(); ++i)
                sum += rec.f64(0, static_cast<int>(i)) *
                       rec.f64(1, static_cast<int>(i));
        } else if (rec.callbackId == re) {
            x[rows++] = sum;
            sum = 0.0;
        }
    });
    EXPECT_EQ(rows, 8);
    for (Index r = 0; r < 8; ++r)
        EXPECT_DOUBLE_EQ(x[r], r % 2 == 0 ? 2.0 : 0.0);
}

// --- Writeback propagation ------------------------------------------------------

TEST(Writeback, DirtyLinesReachDram)
{
    sim::SystemConfig cfg = sim::SystemConfig::neoverseN1();
    cfg.cores = 1;
    cfg.l1StridePrefetcher = false;
    cfg.l2BestOffsetPrefetcher = false;
    // Tiny hierarchy so victims cascade quickly.
    cfg.l1.sizeBytes = 2048;
    cfg.l2.sizeBytes = 2048;
    cfg.llcSlice.sizeBytes = 4096;
    sim::MemorySystem mem(cfg);

    // Write a large footprint: every line becomes dirty, and evictions
    // must eventually show up as DRAM write bytes.
    std::vector<double> data(1 << 15, 0.0); // 256 KiB
    Cycle now = 100;
    for (size_t i = 0; i < data.size(); i += 8) {
        const auto res = mem.coreAccess(
            0, reinterpret_cast<Addr>(&data[i]), true, now);
        if (res.accepted)
            now = std::max(now + 1, res.complete);
        else
            now += 50;
    }
    EXPECT_GT(mem.dramStats().writeBytes, 100u * 64u);
}

// --- OutqSource semantics --------------------------------------------------------

TEST(OutqSource, MissingHandlerPanics)
{
    CooTensor coo({2, 2});
    coo.push2(0, 0, 1.0);
    coo.sortAndCombine();
    const CsrMatrix a = tensor::cooToCsr(coo);
    const DenseVector b(2, 1.0);
    DenseVector x(2);
    const auto p = plan::lowerProgram(spmvSpec(a, b, x, 1));

    sim::SystemConfig cfg = sim::SystemConfig::neoverseN1();
    cfg.cores = 1;
    sim::MemorySystem mem(cfg);
    engine::TmuEngine eng(0, engine::EngineConfig{}, mem, p);
    engine::OutqSource src(eng);
    // No handlers registered: consuming the first record must panic.
    EXPECT_DEATH(
        {
            sim::MicroOp op;
            Cycle now = 0;
            while (now < 100000) {
                ++now;
                eng.tick(now);
                if (src.pullOp(op, now))
                    break;
            }
        },
        "no handler");
}

TEST(OutqSource, DoneOnlyAfterAllRecordsConsumed)
{
    CooTensor coo({4, 4});
    for (Index r = 0; r < 4; ++r)
        coo.push2(r, r, 1.0);
    coo.sortAndCombine();
    const CsrMatrix a = tensor::cooToCsr(coo);
    const DenseVector b(4, 1.0);
    DenseVector x(4);
    const plan::PlanSpec ps = spmvSpec(a, b, x, 2);
    const auto p = plan::lowerProgram(ps);

    sim::SystemConfig cfg = sim::SystemConfig::neoverseN1();
    cfg.cores = 1;
    sim::MemorySystem mem(cfg);
    engine::TmuEngine eng(0, engine::EngineConfig{}, mem, p);
    engine::OutqSource src(eng);
    int records = 0;
    src.setHandler(ps.callbackId("ri"),
                   [&](const engine::OutqRecord &,
                       std::vector<sim::MicroOp> &) { ++records; });
    src.setHandler(ps.callbackId("re"),
                   [&](const engine::OutqRecord &,
                       std::vector<sim::MicroOp> &) { ++records; });

    sim::MicroOp op;
    Cycle now = 0;
    while (!src.done() && now < 1'000'000) {
        ++now;
        eng.tick(now);
        while (src.pullOp(op, now)) {
        }
    }
    EXPECT_TRUE(src.done());
    EXPECT_EQ(records, 8); // 4 ri + 4 re
    EXPECT_TRUE(eng.allConsumed());
}

// --- Containers --------------------------------------------------------------------

TEST(Containers, CircularQueueMoveOnlyType)
{
    CircularQueue<std::unique_ptr<int>> q(3);
    q.push(std::make_unique<int>(1));
    q.push(std::make_unique<int>(2));
    auto v = q.pop();
    EXPECT_EQ(*v, 1);
    q.push(std::make_unique<int>(3));
    EXPECT_EQ(*q.peek(0), 2);
    EXPECT_EQ(*q.peek(1), 3);
}

TEST(Containers, GeneratorSurvivesEarlyDestruction)
{
    // Destroying a suspended coroutine must not leak or crash.
    auto gen = []() -> Generator<int> {
        for (int i = 0;; ++i)
            co_yield i;
    }();
    EXPECT_TRUE(gen.next());
    EXPECT_TRUE(gen.next());
    // gen destroyed here while suspended mid-loop.
}

} // namespace
} // namespace tmu
