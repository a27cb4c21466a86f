/**
 * @file
 * Plan-IR lowering tests (docs/PLAN_IR.md).
 *
 * For every migrated kernel the declarative plan must lower to the
 * *same artifact* the hand-written implementation produced:
 *   - lowerProgram matches the legacy programs.hpp builder record for
 *     record (callback ids only up to a bijection — plan-scoped ids
 *     replace the shared Cb enum and never enter record size/timing);
 *   - the TmuProgram summary() digest is pinned per kernel (Table 4);
 *   - full simulated runs report byte-identical sim.cycles whether the
 *     program+handlers come from the plan or were written by hand;
 *   - the Table-4 bench output is pinned byte-for-byte against
 *     tests/golden/table4.txt.
 * The value-level reference/trace cross-checks live in the fuzzing
 * oracle (src/testing/oracle.cpp), which exercises them over every
 * shape class.
 */

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kernels/spmv.hpp"
#include "kernels/tricount.hpp"
#include "plan/lower.hpp"
#include "plan/plans.hpp"
#include "sim/memsys.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tmu/functional.hpp"
#include "workloads/programs.hpp"
#include "workloads/table4.hpp"
#include "workloads/workload.hpp"

namespace tmu {
namespace {

using engine::OutqRecord;
using engine::TmuProgram;
using sim::MicroOp;
using tensor::CsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;

/** The pinned Table-4 operands, shared by every test below. */
struct Inputs
{
    CsrMatrix a;
    CsrMatrix at;
    DenseVector dv{24};
    DenseVector x{24};
    std::vector<tensor::DcsrMatrix> parts;
    CsrMatrix lower;
    tensor::CooTensor coo;
    DenseMatrix bm{24, 8};
    DenseMatrix cm{24, 8};
    DenseMatrix z{16, 8, 0.0};

    Inputs()
    {
        tensor::CsrGenConfig gc;
        gc.rows = 24;
        gc.cols = 24;
        gc.nnzPerRow = 4;
        gc.seed = 3;
        a = tensor::randomCsr(gc);
        at = tensor::transposeCsr(a);
        Rng rng(5);
        for (Index i = 0; i < 24; ++i)
            dv[i] = rng.nextValue(0.1, 1.0);
        for (Index i = 0; i < 24; ++i)
            for (Index j = 0; j < 8; ++j)
                bm(i, j) = rng.nextValue(0.1, 1.0);
        for (Index i = 0; i < 24; ++i)
            for (Index j = 0; j < 8; ++j)
                cm(i, j) = rng.nextValue(0.1, 1.0);
        parts = tensor::splitCyclic(a, 4);
        lower = tensor::lowerTriangle(tensor::rmatGraph(5, 4, 7));
        coo = tensor::randomCooTensor({16, 24, 24}, 150, 0.0, 9);
    }
};

/**
 * Assert two functional record streams are identical modulo a
 * consistent callback-id bijection.
 */
void
expectSameRecords(const TmuProgram &legacy, const TmuProgram &planned)
{
    const auto lr = engine::interpretToVector(legacy);
    const auto pr = engine::interpretToVector(planned);
    ASSERT_EQ(lr.size(), pr.size());
    ASSERT_GT(lr.size(), 0u) << "degenerate comparison";
    std::map<int, int> fwd, rev;
    for (size_t i = 0; i < lr.size(); ++i) {
        const OutqRecord &x = lr[i];
        const OutqRecord &y = pr[i];
        ASSERT_EQ(x.layer, y.layer) << "record " << i;
        ASSERT_EQ(static_cast<int>(x.event), static_cast<int>(y.event))
            << "record " << i;
        ASSERT_TRUE(x.mask == y.mask) << "record " << i;
        ASSERT_EQ(x.operands, y.operands) << "record " << i;
        const auto f = fwd.emplace(x.callbackId, y.callbackId);
        const auto r = rev.emplace(y.callbackId, x.callbackId);
        ASSERT_EQ(f.first->second, y.callbackId) << "record " << i;
        ASSERT_EQ(r.first->second, x.callbackId) << "record " << i;
    }
}

TEST(PlanProgram, SpmvP1MatchesLegacyBuilder)
{
    Inputs in;
    plan::PlanSpec ps = plan::spmvPlan(in.a, in.dv, in.x, 8, 0,
                                       in.a.rows(), plan::Variant::P1);
    ps.validate();
    expectSameRecords(
        workloads::buildSpmvP1(in.a, in.dv, 8, 0, in.a.rows()),
        plan::lowerProgram(ps));
}

TEST(PlanProgram, SpmvP0MatchesLegacyBuilder)
{
    Inputs in;
    plan::PlanSpec ps = plan::spmvPlan(in.a, in.dv, in.x, 8, 0,
                                       in.a.rows(), plan::Variant::P0);
    ps.validate();
    expectSameRecords(
        workloads::buildSpmvP0(in.a, in.dv, 8, 0, in.a.rows()),
        plan::lowerProgram(ps));
}

TEST(PlanProgram, PagerankMatchesLegacyBuilder)
{
    // PageRank shares the SpMV P1 program; the update only changes the
    // callback bodies, never the marshaled streams.
    Inputs in;
    plan::PlanSpec ps = plan::pagerankPlan(in.a, in.dv, in.x, 0.85, 8,
                                           0, in.a.rows());
    ps.validate();
    expectSameRecords(
        workloads::buildSpmvP1(in.a, in.dv, 8, 0, in.a.rows()),
        plan::lowerProgram(ps));
}

TEST(PlanProgram, SpmspmP2MatchesLegacyBuilder)
{
    Inputs in;
    plan::PlanSpec ps = plan::spmspmPlan(in.a, in.at, 8, 0, in.a.rows());
    ps.validate();
    expectSameRecords(
        workloads::buildSpmspmP2(in.a, in.at, 8, 0, in.a.rows()),
        plan::lowerProgram(ps));
}

TEST(PlanProgram, SpkaddMatchesLegacyBuilder)
{
    Inputs in;
    plan::PlanSpec ps = plan::spkaddPlan(in.parts, 0, in.a.rows());
    ps.validate();
    expectSameRecords(workloads::buildSpkadd(in.parts, 0, in.a.rows()),
                      plan::lowerProgram(ps));
}

TEST(PlanProgram, TricountMatchesLegacyBuilder)
{
    Inputs in;
    plan::PlanSpec ps = plan::tricountPlan(in.lower, 0, in.lower.rows());
    ps.validate();
    expectSameRecords(
        workloads::buildTricount(in.lower, 0, in.lower.rows()),
        plan::lowerProgram(ps));
}

TEST(PlanProgram, MttkrpP1MatchesLegacyBuilder)
{
    Inputs in;
    plan::PlanSpec ps = plan::mttkrpPlan(in.coo, in.bm, in.cm, in.z, 8,
                                         0, in.coo.nnz(),
                                         plan::Variant::P1);
    ps.validate();
    expectSameRecords(workloads::buildMttkrpP1(in.coo, in.bm, in.cm,
                                               in.z, 8, 0,
                                               in.coo.nnz()),
                      plan::lowerProgram(ps));
}

TEST(PlanProgram, MttkrpP2MatchesLegacyBuilder)
{
    Inputs in;
    plan::PlanSpec ps = plan::mttkrpPlan(in.coo, in.bm, in.cm, in.z, 8,
                                         0, in.coo.nnz(),
                                         plan::Variant::P2);
    ps.validate();
    expectSameRecords(workloads::buildMttkrpP2(in.coo, in.bm, in.cm,
                                               in.z, 8, 0,
                                               in.coo.nnz()),
                      plan::lowerProgram(ps));
}

TEST(PlanProgram, GoldenSummaries)
{
    // The Table-4 digest per migrated kernel, pinned. A change here is
    // a change to what the TMU is asked to marshal — update the golden
    // only with an argument for why the new mapping is right.
    Inputs in;
    auto summary = [](const plan::PlanSpec &ps) {
        return plan::lowerProgram(ps).summary();
    };
    EXPECT_EQ(summary(plan::spmvPlan(in.a, in.dv, in.x, 8, 0,
                                     in.a.rows(), plan::Variant::P0)),
              "Dns,Rng | mem,msk | LockStep | GENDx1,GITEx2");
    EXPECT_EQ(summary(plan::spmvPlan(in.a, in.dv, in.x, 8, 0,
                                     in.a.rows(), plan::Variant::P1)),
              "Dns,Rng | mem | BCast,LockStep | GENDx1,GITEx1");
    EXPECT_EQ(summary(plan::pagerankPlan(in.a, in.dv, in.x, 0.85, 8, 0,
                                         in.a.rows())),
              "Dns,Rng | mem | BCast,LockStep | GENDx1,GITEx1");
    EXPECT_EQ(summary(plan::spmspmPlan(in.a, in.at, 8, 0, in.a.rows())),
              "Dns,Rng | mem | BCast,LockStep,Single | GENDx1,GITEx2");
    EXPECT_EQ(summary(plan::spkaddPlan(in.parts, 0, in.a.rows())),
              "Dns,Rng | mem,msk | DisjMrg | GENDx1,GITEx2");
    EXPECT_EQ(
        summary(plan::tricountPlan(in.lower, 0, in.lower.rows())),
        "Dns,Rng | fwd,mem | BCast,ConjMrg,Single | GITEx1");
    EXPECT_EQ(summary(plan::mttkrpPlan(in.coo, in.bm, in.cm, in.z, 8, 0,
                                       in.coo.nnz(),
                                       plan::Variant::P1)),
              "Dns,Idx | fwd,ldr,lin,mem,msk | LockStep | GITEx2");
    EXPECT_EQ(summary(plan::mttkrpPlan(in.coo, in.bm, in.cm, in.z, 8, 0,
                                       in.coo.nnz(),
                                       plan::Variant::P2)),
              "Dns,Idx | fwd,ldr,lin,mem | BCast,LockStep | GITEx2");
}

/**
 * sim.cycles must be identical whether the TMU program + callback
 * handlers are produced by the plan lowering (the production path) or
 * written by hand the way the pre-plan workloads did it. Runs share
 * one process; each RunHarness resets the canonical address space, so
 * back-to-back runs are directly comparable.
 */
TEST(PlanCycles, SpmvTmuMatchesHandWritten)
{
    Inputs in;
    workloads::RunConfig cfg;
    cfg.mode = workloads::Mode::Tmu;
    cfg.system.cores = 2;
    const Index rows = in.a.rows();
    DenseVector x(rows);
    const DenseVector ref = kernels::spmvRef(in.a, in.dv);

    auto checkX = [&] {
        for (Index i = 0; i < rows; ++i)
            ASSERT_NEAR(x[i], ref[i], 1e-9);
        x.fill(0.0);
    };

    // Hand-written: legacy builder + legacy Cb-enum handlers.
    std::uint64_t legacyCycles = 0;
    {
        workloads::RunHarness h(cfg);
        struct CoreState
        {
            Index row = 0;
            Value sum = 0.0;
        };
        std::vector<CoreState> st(2);
        for (int c = 0; c < 2; ++c) {
            const auto [beg, end] = workloads::makePartition(
                workloads::PartitionKind::Rows, rows, nullptr, 2)
                .range(c);
            auto &src = h.addTmuProgram(
                c, workloads::buildSpmvP1(in.a, in.dv, cfg.programLanes,
                                          beg, end));
            CoreState &s = st[static_cast<size_t>(c)];
            s.row = beg;
            src.setHandler(
                workloads::kCbRi,
                [&s](const OutqRecord &rec, std::vector<MicroOp> &ops) {
                    for (size_t i = 0; i < rec.operands[0].size(); ++i)
                        s.sum += rec.f64(0, static_cast<int>(i)) *
                                 rec.f64(1, static_cast<int>(i));
                    ops.push_back(
                        MicroOp::flop(static_cast<std::uint16_t>(
                            2 * rec.operands[0].size())));
                });
            src.setHandler(
                workloads::kCbRe,
                [&s, &x](const OutqRecord &,
                         std::vector<MicroOp> &ops) {
                    x[s.row] = s.sum;
                    ops.push_back(MicroOp::store(
                        sim::addrOf(x.data(), s.row), 8));
                    ++s.row;
                    s.sum = 0.0;
                });
        }
        legacyCycles = h.finish().sim.cycles;
        checkX();
    }

    // Plan-lowered: same spec the SpMV workload runs in production.
    std::uint64_t planCycles = 0;
    {
        workloads::RunHarness h(cfg);
        std::vector<plan::PlanState> st(2);
        std::vector<plan::PlanSpec> ps;
        for (int c = 0; c < 2; ++c) {
            const auto [beg, end] = workloads::makePartition(
                workloads::PartitionKind::Rows, rows, nullptr, 2)
                .range(c);
            ps.push_back(plan::spmvPlan(in.a, in.dv, x,
                                        cfg.programLanes, beg, end,
                                        plan::Variant::P1));
            h.addPlan(c, ps[c], st[static_cast<size_t>(c)]);
        }
        planCycles = h.finish().sim.cycles;
        checkX();
    }

    EXPECT_EQ(legacyCycles, planCycles);
    EXPECT_GT(planCycles, 0u);
}

TEST(PlanCycles, SpmvBaselineMatchesHandWritten)
{
    Inputs in;
    workloads::RunConfig cfg;
    cfg.mode = workloads::Mode::Baseline;
    cfg.system.cores = 2;
    const Index rows = in.a.rows();
    DenseVector x(rows);

    std::uint64_t legacyCycles = 0;
    {
        workloads::RunHarness h(cfg);
        for (int c = 0; c < 2; ++c) {
            const auto [beg, end] = workloads::makePartition(
                workloads::PartitionKind::Rows, rows, nullptr, 2)
                .range(c);
            h.addBaselineTrace(c, kernels::traceSpmv(in.a, in.dv, x,
                                                     beg, end,
                                                     h.simd()));
        }
        legacyCycles = h.finish().sim.cycles;
    }

    std::uint64_t planCycles = 0;
    {
        workloads::RunHarness h(cfg);
        std::vector<plan::PlanSpec> ps;
        for (int c = 0; c < 2; ++c) {
            const auto [beg, end] = workloads::makePartition(
                workloads::PartitionKind::Rows, rows, nullptr, 2)
                .range(c);
            ps.push_back(plan::spmvPlan(in.a, in.dv, x,
                                        cfg.programLanes, beg, end,
                                        plan::Variant::P1));
            h.addBaselineTrace(c,
                               plan::lowerTrace(ps[c], {}, h.simd()));
        }
        planCycles = h.finish().sim.cycles;
    }

    EXPECT_EQ(legacyCycles, planCycles);
    EXPECT_GT(planCycles, 0u);
}

TEST(PlanCycles, TricountTmuMatchesHandWritten)
{
    Inputs in;
    workloads::RunConfig cfg;
    cfg.mode = workloads::Mode::Tmu;
    cfg.system.cores = 2;
    const Index rows = in.lower.rows();
    const std::uint64_t ref = kernels::tricountRef(in.lower);

    std::uint64_t legacyCycles = 0;
    {
        workloads::RunHarness h(cfg);
        std::vector<std::uint64_t> counts(2, 0);
        for (int c = 0; c < 2; ++c) {
            const auto [beg, end] = workloads::makePartition(
                workloads::PartitionKind::Rows, rows, nullptr, 2)
                .range(c);
            auto &src = h.addTmuProgram(
                c, workloads::buildTricount(in.lower, beg, end));
            auto &count = counts[static_cast<size_t>(c)];
            src.setHandler(workloads::kCbHit,
                           [&count](const OutqRecord &,
                                    std::vector<MicroOp> &ops) {
                               ++count;
                               ops.push_back(MicroOp::iop());
                           });
        }
        legacyCycles = h.finish().sim.cycles;
        ASSERT_EQ(counts[0] + counts[1], ref);
    }

    std::uint64_t planCycles = 0;
    {
        workloads::RunHarness h(cfg);
        std::vector<plan::PlanState> st(2);
        std::vector<plan::PlanSpec> ps;
        for (int c = 0; c < 2; ++c) {
            const auto [beg, end] = workloads::makePartition(
                workloads::PartitionKind::Rows, rows, nullptr, 2)
                .range(c);
            ps.push_back(plan::tricountPlan(in.lower, beg, end));
            h.addPlan(c, ps[c], st[static_cast<size_t>(c)]);
        }
        planCycles = h.finish().sim.cycles;
        ASSERT_EQ(st[0].count + st[1].count, ref);
    }

    EXPECT_EQ(legacyCycles, planCycles);
    EXPECT_GT(planCycles, 0u);
}

TEST(PlanCallbacks, IdsArePlanScoped)
{
    Inputs in;
    const plan::PlanSpec ps = plan::spmspmPlan(in.a, in.at, 8, 0,
                                               in.a.rows());
    // Registration order defines the ids, starting at 1.
    EXPECT_EQ(ps.callbackId("set_a"), 1);
    EXPECT_EQ(ps.callbackId("flush"), 2);
    EXPECT_EQ(ps.callbackId("acc"), 3);
}

using OutqDeathTest = ::testing::Test;

TEST(OutqDeathTest, DuplicateHandlerIdPanics)
{
    Inputs in;
    const TmuProgram prog =
        workloads::buildTricount(in.lower, 0, in.lower.rows());
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
