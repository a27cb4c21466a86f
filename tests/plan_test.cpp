/**
 * @file
 * Plan-IR lowering tests (docs/PLAN_IR.md).
 *
 *   - PlanPinned: for each kernel compiled from its einsum at the
 *     Table-4 operands, the functional record stream of lowerProgram
 *     and the SVE 512 micro-op stream of lowerTrace are pinned by an
 *     FNV-1a 64 digest and a length;
 *   - the baseline traces the compiled plans lower to compute their
 *     reference kernel's result and emit a sensible micro-op mix;
 *   - callback ids are plan-scoped, and the Table-4 bench output is
 *     pinned byte-for-byte against tests/golden/table4.txt.
 * The value-level reference/trace/TMU cross-checks live in the fuzzing
 * oracle (src/testing/oracle.cpp), which exercises them over every
 * shape class.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/pagerank.hpp"
#include "kernels/spadd.hpp"
#include "kernels/spmspm.hpp"
#include "kernels/spmv.hpp"
#include "kernels/tricount.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "sim/addrspace.hpp"
#include "sim/memsys.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tmu/functional.hpp"
#include "workloads/table4.hpp"
#include "workloads/wl_merge.hpp"
#include "workloads/wl_spmspm.hpp"
#include "workloads/wl_spmv.hpp"
#include "workloads/wl_tensor.hpp"

namespace tmu {
namespace {

using engine::OutqRecord;
using plan::frontend::CompileOptions;
using plan::frontend::EinsumBindings;
using sim::MicroOp;
using sim::OpKind;
using sim::SimdConfig;
using tensor::CooTensor;
using tensor::CsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;

// --- Pinned record and trace streams ------------------------------------

/** FNV-1a 64 over 64-bit words, each fed as 8 little-endian bytes. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (v >> (8 * b)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Digest and length of one stream. */
struct StreamPin
{
    std::uint64_t digest = 0;
    std::size_t length = 0;

    bool operator==(const StreamPin &) const = default;
};

void
PrintTo(const StreamPin &p, std::ostream *os)
{
    *os << "{0x" << std::hex << p.digest << std::dec << "ull, "
        << p.length << "}";
}

/** Layer, event, callback id, mask bits and operand words per record. */
StreamPin
recordPin(const engine::TmuProgram &program)
{
    const std::vector<OutqRecord> recs =
        engine::interpretToVector(program);
    Fnv1a h;
    for (const OutqRecord &r : recs) {
        h.add(static_cast<std::uint64_t>(r.layer));
        h.add(static_cast<std::uint64_t>(r.event));
        h.add(static_cast<std::uint64_t>(r.callbackId));
        h.add(r.mask.bits());
        for (const std::vector<std::uint64_t> &operand : r.operands) {
            h.add(operand.size());
            for (const std::uint64_t w : operand)
                h.add(w);
        }
    }
    return {h.value(), recs.size()};
}

/**
 * Kind, size, branch outcome, dependency distance, pc and flops per
 * micro-op. Addresses are left out: they name collector buffers whose
 * placement is not part of the kernel.
 */
StreamPin
tracePin(sim::Trace t)
{
    Fnv1a h;
    std::size_t n = 0;
    while (t.next()) {
        const MicroOp &op = t.value();
        h.add(static_cast<std::uint64_t>(op.kind));
        h.add(op.size);
        h.add(op.taken);
        h.add(op.depDist);
        h.add(op.pc);
        h.add(op.flops);
        ++n;
    }
    return {h.value(), n};
}

/**
 * Pin the Table-4 row @p row. A pin moves only when the compiled kernel
 * changes what the TMU is asked to marshal or what the baseline
 * executes; update one only with an argument for why the new stream is
 * right.
 */
void
expectPinned(const char *row, StreamPin records, StreamPin trace)
{
    const workloads::Table4 t4;
    const plan::PlanSpec &ps = t4.planSpec(row);
    // Address-valued operands (Ldr streams) hash alike in any test
    // order only from a fresh canonical address space.
    sim::resetAddrSpace();
    EXPECT_EQ(recordPin(plan::lowerProgram(ps)), records);
    std::vector<Index> idxs, rowNnz;
    std::vector<Value> vals;
    std::uint64_t count = 0;
    EXPECT_EQ(tracePin(plan::lowerTrace(ps, {&idxs, &vals, &rowNnz, &count},
                                        SimdConfig{512})),
              trace);
}

TEST(PlanPinned, SpmvP0)
{
    expectPinned("SpMV P0", {0x491d8237df234d26ull, 45},
                 {0x8ecba5d061c2f680ull, 328});
}

TEST(PlanPinned, SpmvP1)
{
    expectPinned("SpMV P1", {0x28eed505b9caaea9ull, 55},
                 {0x8ecba5d061c2f680ull, 328});
}

TEST(PlanPinned, SpmspmP2)
{
    expectPinned("SpMSpM P2", {0x4fdc63a4d6e2ac8aull, 228},
                 {0xcb1e609254c35d45ull, 4536});
}

TEST(PlanPinned, Spkadd)
{
    expectPinned("SpKAdd", {0x273d0aa6625b2580ull, 81},
                 {0x9767c4f8dd081e02ull, 1317});
}

TEST(PlanPinned, Pagerank)
{
    // PageRank marshals exactly SpMV P1's records; only the row update
    // in the callbacks and the baseline differ.
    expectPinned("PageRank", {0x28eed505b9caaea9ull, 55},
                 {0x01753096dd81ff00ull, 328});
}

TEST(PlanPinned, Tricount)
{
    expectPinned("TriangleCount", {0xb2b90b8b44295f25ull, 68},
                 {0x6d8fe62e681e9133ull, 1361});
}

TEST(PlanPinned, MttkrpP1)
{
    expectPinned("MTTKRP P1", {0x1fa1d592a7d0249cull, 351},
                 {0xc680fe565b1f293cull, 1684});
}

TEST(PlanPinned, MttkrpP2)
{
    expectPinned("MTTKRP P2", {0x588cb35f144ddca4ull, 459},
                 {0xc680fe565b1f293cull, 1684});
}

TEST(PlanPinned, Sddmm)
{
    expectPinned("SDDMM", {0x917d973615622344ull, 372},
                 {0x5778f1695c8c053eull, 943});
}

TEST(PlanPinned, SpmmP2)
{
    expectPinned("SpMM P2", {0xf263b3541c05abd2ull, 285},
                 {0x61314b70a10c0e32ull, 841});
}

TEST(PlanPinned, SpmmScatter)
{
    expectPinned("SpMM-SC", {0x4248a3c590e58005ull, 285},
                 {0xce7869546c34c476ull, 793});
}

// --- Baseline traces of the compiled plans -------------------------------

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
    std::uint64_t flops = 0;
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

/** Compile @p expr over [beg, end) (kInvalidIndex: the full domain). */
plan::PlanSpec
compile(const char *expr, const EinsumBindings &fb, Index beg = 0,
        Index end = kInvalidIndex)
{
    CompileOptions fo;
    fo.beg = beg;
    fo.end = end;
    return plan::frontend::compileEinsum(expr, fb, fo).valueOrFatal();
}

/** The baseline SpMV trace over rows [beg, end), writing @p x. */
sim::Trace
spmvTrace(const CsrMatrix &a, const DenseVector &b, DenseVector &x,
          Index beg, Index end, SimdConfig simd)
{
    EinsumBindings fb;
    fb.csr["A"] = &a;
    fb.vec["B"] = &b;
    fb.outVec = &x;
    return plan::lowerTrace(
        compile(workloads::SpmvWorkload::kEinsum, fb, beg, end), {}, simd);
}

/** The baseline SpKAdd trace over rows [beg, end) into the sinks. */
sim::Trace
spkaddTrace(const std::vector<tensor::DcsrMatrix> &parts, Index beg,
            Index end, const plan::TraceSinks &io)
{
    EinsumBindings fb;
    fb.ensembles["A^k"] = &parts;
    return plan::lowerTrace(
        compile(workloads::SpkaddWorkload::kEinsum, fb, beg, end), io,
        SimdConfig{512});
}

class SpmvTraceProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SpmvTraceProperty, TraceComputesReference)
{
    const int vecBits = GetParam();
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(60, 50, 400, 3));
    const DenseVector b = randomVec(50, 4);
    const DenseVector want = kernels::spmvRef(a, b);
    DenseVector x(a.rows());
    const OpMix mix =
        drain(spmvTrace(a, b, x, 0, a.rows(), SimdConfig{vecBits}));
    for (Index i = 0; i < a.rows(); ++i)
        EXPECT_NEAR(x[i], want[i], 1e-12);
    EXPECT_GT(mix.loads, a.nnz());     // idx + val + gather
    EXPECT_EQ(mix.stores, a.rows());   // one result store per row
    EXPECT_GT(mix.branches, 0);
    EXPECT_GE(mix.flops, static_cast<std::uint64_t>(2 * a.nnz()));
}

INSTANTIATE_TEST_SUITE_P(VectorWidths, SpmvTraceProperty,
                         ::testing::Values(128, 256, 512));

TEST(Spmv, PartitionedTraceMatches)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(64, 64, 300, 5));
    const DenseVector b = randomVec(64, 6);
    const DenseVector want = kernels::spmvRef(a, b);
    DenseVector x(a.rows());
    // Two disjoint row partitions (as two cores would run it).
    drain(spmvTrace(a, b, x, 0, 32, SimdConfig{512}));
    drain(spmvTrace(a, b, x, 32, 64, SimdConfig{512}));
    for (Index i = 0; i < a.rows(); ++i)
        EXPECT_NEAR(x[i], want[i], 1e-12);
}

TEST(Spmv, WiderVectorsFewerOps)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(50, 50, 600, 7));
    const DenseVector b = randomVec(50, 8);
    DenseVector x1(a.rows()), x2(a.rows());
    const OpMix narrow =
        drain(spmvTrace(a, b, x1, 0, a.rows(), SimdConfig{128}));
    const OpMix wide =
        drain(spmvTrace(a, b, x2, 0, a.rows(), SimdConfig{512}));
    EXPECT_GT(narrow.branches, wide.branches);
    EXPECT_GT(narrow.flopOps, wide.flopOps);
    EXPECT_EQ(narrow.stores, wide.stores);
}

TEST(Spmspm, TraceComputesReference)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(40, 40, 250, 13));
    const CsrMatrix b = tensor::transposeCsr(a);
    const CsrMatrix want = kernels::spmspmRef(a, b);

    EinsumBindings fb;
    fb.csr["A"] = &a;
    fb.csr["B"] = &b;
    std::vector<Index> outIdxs, outRowNnz;
    std::vector<Value> outVals;
    const OpMix mix = drain(plan::lowerTrace(
        compile(workloads::SpmspmWorkload::kEinsum, fb),
        {&outIdxs, &outVals, &outRowNnz, nullptr}, SimdConfig{512}));
    ASSERT_EQ(outRowNnz.size(), static_cast<size_t>(a.rows()));
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
    EXPECT_GT(mix.flops, 0u);
    EXPECT_GT(mix.stores, want.nnz()); // scatter + emit
}

TEST(Spkadd, TraceComputesReference)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(48, 32, 400, 21));
    const auto parts = tensor::splitCyclic(a, 8);
    const CsrMatrix want = kernels::spkaddRef(parts);
    std::vector<Index> outIdxs, outRowNnz;
    std::vector<Value> outVals;
    const OpMix mix =
        drain(spkaddTrace(parts, 0, want.rows(),
                          {&outIdxs, &outVals, &outRowNnz, nullptr}));
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
    EXPECT_GT(mix.branches, 2 * want.nnz());
}

TEST(Spkadd, PartitionedTraceMatches)
{
    const CsrMatrix a = tensor::cooToCsr(randomCoo2(40, 24, 300, 23));
    const auto parts = tensor::splitCyclic(a, 4);
    const CsrMatrix want = kernels::spkaddRef(parts);
    std::vector<Index> i1, i2, n1, n2;
    std::vector<Value> v1, v2;
    drain(spkaddTrace(parts, 0, want.rows() / 2, {&i1, &v1, &n1, nullptr}));
    drain(spkaddTrace(parts, want.rows() / 2, want.rows(),
                      {&i2, &v2, &n2, nullptr}));
    EXPECT_EQ(static_cast<Index>(i1.size() + i2.size()), want.nnz());
}

TEST(Mttkrp, TraceComputesReference)
{
    const CooTensor t =
        tensor::randomCooTensor({30, 20, 15}, 500, 0.0, 37);
    const DenseMatrix b = randomDense(20, 16, 38);
    const DenseMatrix c = randomDense(15, 16, 39);
    const DenseMatrix want = kernels::mttkrpRef(t, b, c, 0);
    DenseMatrix z(30, 16, 0.0);
    EinsumBindings fb;
    fb.coo["A"] = &t;
    fb.mat["B"] = &b;
    fb.mat["C"] = &c;
    fb.outMat = &z;
    const OpMix mix =
        drain(plan::lowerTrace(compile(workloads::MttkrpWorkload::kEinsum,
                                       fb),
                               {}, SimdConfig{512}));
    for (Index i = 0; i < 30; ++i) {
        for (Index j = 0; j < 16; ++j)
            EXPECT_NEAR(z(i, j), want(i, j), 1e-12);
    }
    EXPECT_GE(mix.flops, static_cast<std::uint64_t>(3 * 16 * t.nnz()));
}

TEST(Pagerank, TraceIterMatchesReference)
{
    const CsrMatrix g = tensor::rmatGraph(6, 5, 47);
    kernels::PageRankConfig cfg;
    cfg.iterations = 1;
    const DenseVector want = kernels::pagerankRef(g, cfg);

    const Index n = g.rows();
    const CsrMatrix gt = tensor::transposeCsr(g);
    DenseVector contrib(n);
    for (Index j = 0; j < n; ++j) {
        const auto outdeg =
            static_cast<Value>(std::max<Index>(1, gt.rowNnz(j)));
        contrib[j] = (1.0 / static_cast<double>(n)) / outdeg;
    }
    DenseVector next(n);
    EinsumBindings fb;
    fb.csr["A"] = &g;
    fb.vec["X"] = &contrib;
    fb.outVec = &next;
    fb.scalars["alpha"] = cfg.damping;
    fb.scalars["beta"] = (1.0 - cfg.damping) / static_cast<double>(n);
    drain(plan::lowerTrace(compile(workloads::PagerankWorkload::kEinsum,
                                   fb),
                           {}, SimdConfig{512}));
    for (Index i = 0; i < n; ++i)
        EXPECT_NEAR(next[i], want[i], 1e-12);
}

TEST(Tricount, TraceMatchesReference)
{
    const CsrMatrix g = tensor::rmatGraph(6, 5, 51);
    const CsrMatrix l = tensor::lowerTriangle(g);
    const std::uint64_t want = kernels::tricountRef(l);
    EinsumBindings fb;
    fb.csr["L"] = &l;
    std::uint64_t count = 0;
    plan::TraceSinks io;
    io.count = &count;
    const OpMix mix = drain(plan::lowerTrace(
        compile(workloads::TricountWorkload::kEinsum, fb), io,
        SimdConfig{512}));
    EXPECT_EQ(count, want);
    EXPECT_GT(mix.branches, mix.stores); // merge-dominated
}

// --- Callback ids and Table 4 ---------------------------------------------

TEST(PlanCallbacks, IdsArePlanScoped)
{
    const workloads::Table4 t4;
    const plan::PlanSpec &ps = t4.planSpec("SpMSpM P2");
    // Registration order defines the ids, starting at 1.
    EXPECT_EQ(ps.callbackId("set_a"), 1);
    EXPECT_EQ(ps.callbackId("flush"), 2);
    EXPECT_EQ(ps.callbackId("acc"), 3);
}

using OutqDeathTest = ::testing::Test;

TEST(OutqDeathTest, DuplicateHandlerIdPanics)
{
    const workloads::Table4 t4;
    const engine::TmuProgram prog =
        plan::lowerProgram(t4.planSpec("TriangleCount"));
    sim::SystemConfig sys = sim::SystemConfig::neoverseN1();
    sim::MemorySystem mem(sys);
    engine::TmuEngine eng(0, engine::EngineConfig{}, mem, prog);
    engine::OutqSource src(eng);
    auto noop = [](const OutqRecord &, std::vector<MicroOp> &) {};
    src.setHandler(1, noop);
    EXPECT_DEATH(src.setHandler(1, noop),
                 "duplicate callback handler id 1");
}

TEST(Table4, MatchesGolden)
{
    std::ifstream f(TMU_GOLDEN_TABLE4);
    ASSERT_TRUE(f.good()) << "missing golden: " << TMU_GOLDEN_TABLE4;
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_EQ(ss.str(), workloads::Table4().report())
        << "Table 4 drifted; regenerate tests/golden/table4.txt from "
           "`bench/table4_mapping` only with a rationale for the "
           "mapping change";
}

} // namespace
} // namespace tmu
