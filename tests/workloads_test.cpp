/**
 * @file
 * End-to-end workload tests: every evaluated workload runs both the
 * baseline (traced software) and TMU paths on a small multicore and
 * must produce reference-verified outputs on both, and every registry
 * workload does so again at 65 cores and keeps its pinned cycle counts
 * at 1/2048 on two cores. Also checks the headline
 * direction (the TMU path is faster on a memory-intensive workload),
 * the Fig. 13 read-to-write instrumentation, the run verifier's
 * diagnostics, and the run-level failure paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "workloads/registry.hpp"

namespace tmu::workloads {
namespace {

RunConfig
smallConfig(Mode mode)
{
    RunConfig cfg;
    cfg.mode = mode;
    cfg.system.cores = 2;
    cfg.system.mem.llcSlices = 8;
    cfg.programLanes = 8;
    return cfg;
}

/** 65 cores on a 9x8 mesh: more cores than any fixed table of 64. */
RunConfig
scaleOutConfig(Mode mode)
{
    RunConfig cfg;
    cfg.mode = mode;
    cfg.system.cores = 65;
    cfg.system.mem.meshW = 9;
    cfg.system.mem.meshH = 8;
    cfg.partition = PartitionKind::NnzBalanced;
    return cfg;
}

bool
mentions(const std::string &text, const std::string &what)
{
    return text.find(what) != std::string::npos;
}

class WorkloadBothPaths
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadBothPaths, BaselineAndTmuVerify)
{
    auto wl = makeWorkload(GetParam());
    const std::string input = wl->inputs().front();
    wl->prepare(input, 1024);

    const RunResult base = wl->run(smallConfig(Mode::Baseline));
    EXPECT_TRUE(base.verified) << "baseline failed verification";
    EXPECT_GT(base.sim.cycles, 0u);

    const RunResult tmu = wl->run(smallConfig(Mode::Tmu));
    EXPECT_TRUE(tmu.verified) << "TMU path failed verification";
    EXPECT_GT(tmu.sim.cycles, 0u);
    EXPECT_GT(tmu.tmuRequests, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadBothPaths,
    ::testing::Values("SpMV", "PR", "SpMSpM", "TC", "SpKAdd", "SpAdd",
                      "MTTKRP_MP", "MTTKRP_CP", "SpTC", "CP-ALS"));

class WorkloadScaleOut : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadScaleOut, BothPathsVerifyAt65Cores)
{
    auto wl = makeWorkload(GetParam());
    wl->prepare(wl->inputs().front(), 1024);
    for (const Mode mode : {Mode::Baseline, Mode::Tmu}) {
        const RunResult res = wl->run(scaleOutConfig(mode));
        EXPECT_TRUE(res.sim.completed());
        EXPECT_TRUE(res.verified) << res.mismatch;
    }
}

// The registry in full: the Fig. 10 set plus the Unlisted workloads.
INSTANTIATE_TEST_SUITE_P(EveryWorkload, WorkloadScaleOut,
                         ::testing::ValuesIn(registeredWorkloads()));

/**
 * sim.cycles of every registry workload on its first input at 1/2048
 * on two cores, in both modes; the event and the dense scheduler must
 * both give the pinned count. A pin moves only with simulated time;
 * update one only with an argument for why the new count is right.
 */
struct CyclePin
{
    const char *workload;
    std::uint64_t baseline;
    std::uint64_t tmu;
};

constexpr CyclePin kCyclePins[] = {
    {"SpMV", 12952, 2640},        {"SpMSpM", 38774, 18685},
    {"SpKAdd", 55869, 3300},      {"PR", 12957, 2660},
    {"TC", 152274, 35288},        {"SpAdd", 77946, 10196},
    {"SDDMM", 33800, 31757},      {"SpMM", 7741, 9780},
    {"SpMM-SC", 10382, 6553},     {"MTTKRP_MP", 18943, 23796},
    {"MTTKRP_CP", 18943, 17584},  {"SpTC", 145317, 63471},
    {"CP-ALS", 45352, 44063},
};

class PinnedCycles : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PinnedCycles, BothModesBothSchedulers)
{
    const CyclePin *pin = nullptr;
    for (const CyclePin &p : kCyclePins) {
        if (GetParam() == p.workload)
            pin = &p;
    }
    ASSERT_NE(pin, nullptr) << "no cycle pin for " << GetParam();
    auto wl = makeWorkload(GetParam());
    wl->prepare(wl->inputs().front(), 2048);
    for (const bool dense : {false, true}) {
        for (const Mode mode : {Mode::Baseline, Mode::Tmu}) {
            SCOPED_TRACE(std::string(dense ? "dense" : "event") +
                         (mode == Mode::Tmu ? " tmu" : " baseline"));
            RunConfig cfg;
            cfg.mode = mode;
            cfg.system.cores = 2;
            cfg.system.schedDense = dense;
            const RunResult res = wl->run(cfg);
            EXPECT_TRUE(res.verified) << res.mismatch;
            EXPECT_EQ(res.sim.cycles,
                      mode == Mode::Tmu ? pin->tmu : pin->baseline);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(EveryWorkload, PinnedCycles,
                         ::testing::ValuesIn(registeredWorkloads()));

TEST(Workloads, SpaddBaselineCyclesIgnoreHeapHistory)
{
    // Collector addresses enter the timing stream: a collector that
    // reallocates mid-run makes the cycles depend on what ran before.
    const RunConfig cfg = scaleOutConfig(Mode::Baseline);
    auto spadd = makeWorkload("SpAdd");
    spadd->prepare("M1", 1024);
    const RunResult alone = spadd->run(cfg);
    ASSERT_TRUE(alone.verified) << alone.mismatch;

    auto spkadd = makeWorkload("SpKAdd");
    spkadd->prepare("M1", 1024);
    ASSERT_TRUE(spkadd->run(cfg).verified);
    EXPECT_EQ(spadd->run(cfg).sim.cycles, alone.sim.cycles);
}

TEST(Workloads, PlanWiderThanTheEngineFailsOnlyItsRun)
{
    // TC's conjunctive merges use two lanes.
    auto tc = makeWorkload("TC");
    tc->prepare("M1", 1024);
    RunConfig cfg = smallConfig(Mode::Tmu);
    cfg.tmu.lanes = 1;
    try {
        tc->run(cfg);
        ADD_FAILURE() << "a 2-lane plan ran on a 1-lane engine";
    } catch (const std::runtime_error &e) {
        EXPECT_TRUE(mentions(e.what(),
                             "uses 2 lanes but the engine has 1"))
            << e.what();
    }
    // The process goes on: the next run of the same workload is fine.
    EXPECT_TRUE(tc->run(smallConfig(Mode::Tmu)).verified);
}

TEST(Workloads, CpalsStopsAtTheFirstPhaseOverBudget)
{
    auto wl = makeWorkload("CP-ALS");
    wl->prepare("T1", 512);
    RunConfig cfg = smallConfig(Mode::Tmu);
    cfg.system.cycleBudget = 2000;
    const RunResult res = wl->run(cfg);
    EXPECT_EQ(res.sim.termination,
              sim::TerminationReason::CycleBudgetExceeded);
    EXPECT_FALSE(res.sim.diagnostic.empty());
    EXPECT_FALSE(res.verified);
    for (const stats::SnapshotEntry &e : res.stats.entries) {
        if (e.name == "sim.terminationReason") {
            EXPECT_EQ(e.u, static_cast<std::uint64_t>(
                               sim::TerminationReason::
                                   CycleBudgetExceeded));
        }
    }
}

TEST(Workloads, CpalsSumsItsPhasesSchedulerStats)
{
    auto wl = makeWorkload("CP-ALS");
    wl->prepare("T1", 512);
    const RunResult res = wl->run(smallConfig(Mode::Tmu));
    ASSERT_TRUE(res.verified) << res.mismatch;
    EXPECT_GT(res.sim.sched.eventsDispatched, 0u);
    EXPECT_GT(res.sim.sched.idleCyclesSkipped, 0u);
}

// --- The run verifier ----------------------------------------------------

/** 4 x 8 reference, row 1 empty; two cores own rows {0,1} and {2,3}. */
tensor::CsrMatrix
verifierRef()
{
    return tensor::CsrMatrix(4, 8, {0, 2, 2, 3, 5}, {1, 5, 3, 0, 7},
                             {1.5, 2.5, 3.5, 4.5, 5.5});
}

/** @p ref as the run's collectors hold it, in either row form. */
std::vector<plan::PlanState>
collectorsOf(const tensor::CsrMatrix &ref, const Partition &part,
             bool perElementRows)
{
    std::vector<plan::PlanState> out(static_cast<size_t>(part.cores));
    for (int c = 0; c < part.cores; ++c) {
        plan::PlanState &st = out[static_cast<size_t>(c)];
        const auto [beg, end] = part.range(c);
        for (Index i = beg; i < end; ++i) {
            for (Index p = ref.rowBegin(i); p < ref.rowEnd(i); ++p) {
                st.idxs.push_back(ref.idxs()[static_cast<size_t>(p)]);
                st.vals.push_back(ref.vals()[static_cast<size_t>(p)]);
                if (perElementRows)
                    st.rows.push_back(i);
            }
            if (!perElementRows)
                st.rowNnz.push_back(ref.rowNnz(i));
        }
    }
    return out;
}

TEST(Verifier, ReportsEachSparseFaultAtItsCoordinate)
{
    const tensor::CsrMatrix ref = verifierRef();
    const Partition part =
        makePartition(PartitionKind::Rows, 4, nullptr, 2);
    for (const bool perElement : {false, true}) {
        SCOPED_TRACE(perElement ? "per-element rows" : "rowNnz counts");
        RunResult res;
        auto out = collectorsOf(ref, part, perElement);
        EXPECT_TRUE(verifySparse(res, part, out, ref, Tolerance::Exact));
        EXPECT_TRUE(res.mismatch.empty()) << res.mismatch;

        // A changed value: one ULP off is a failure under Exact.
        out[1].vals[0] = std::nextafter(out[1].vals[0], 10.0);
        EXPECT_FALSE(verifySparse(res, part, out, ref, Tolerance::Exact));
        EXPECT_TRUE(mentions(res.mismatch, "core 1 row 2 col 3"))
            << res.mismatch;

        // A wrong column.
        out = collectorsOf(ref, part, perElement);
        out[0].idxs[1] = 6;
        EXPECT_FALSE(verifySparse(res, part, out, ref, Tolerance::Exact));
        EXPECT_TRUE(mentions(res.mismatch, "core 0 row 0 col 6"))
            << res.mismatch;

        // A missing row: core 1 drops row 3 and its element.
        out = collectorsOf(ref, part, perElement);
        out[1].idxs.pop_back();
        out[1].vals.pop_back();
        out[1].idxs.pop_back();
        out[1].vals.pop_back();
        if (perElement) {
            out[1].rows.resize(1);
        } else {
            out[1].rowNnz.pop_back();
        }
        EXPECT_FALSE(verifySparse(res, part, out, ref, Tolerance::Exact));
        EXPECT_TRUE(mentions(res.mismatch, "core 1 row 3")) << res.mismatch;

        // An extra element at the end of row 0.
        out = collectorsOf(ref, part, perElement);
        out[0].idxs.insert(out[0].idxs.begin() + 2, 7);
        out[0].vals.insert(out[0].vals.begin() + 2, 9.0);
        if (perElement) {
            out[0].rows.insert(out[0].rows.begin(), 0);
        } else {
            ++out[0].rowNnz[0];
        }
        EXPECT_FALSE(verifySparse(res, part, out, ref, Tolerance::Exact));
        EXPECT_TRUE(mentions(res.mismatch, "core 0 row 0 col 7: extra"))
            << res.mismatch;
    }
}

TEST(Verifier, DenseSumsPartsAndCountsAreExact)
{
    // Two private accumulators whose sum is the 2 x 3 reference.
    const std::vector<Value> ref = {1, 2, 3, 4, 5, 6};
    std::vector<Value> a = {1, 0, 3, 0, 5, 0};
    const std::vector<Value> b = {0, 2, 0, 4, 0, 6};
    RunResult res;
    EXPECT_TRUE(verifyDense(res, ref.data(), 2, 3, {a.data(), b.data()},
                            Tolerance::Exact));
    a[5] = 1e-13; // within Reordered's absolute bound, not Exact's
    EXPECT_TRUE(verifyDense(res, ref.data(), 2, 3, {a.data(), b.data()},
                            Tolerance::Reordered));
    EXPECT_FALSE(verifyDense(res, ref.data(), 2, 3, {a.data(), b.data()},
                             Tolerance::Exact));
    EXPECT_TRUE(mentions(res.mismatch, "row 1 col 2")) << res.mismatch;

    const std::vector<Index> want = {3, 0, 2};
    std::vector<Index> got = want;
    EXPECT_TRUE(verifyCounts(res, 4, 10, got, want));
    got[2] = 1;
    EXPECT_FALSE(verifyCounts(res, 4, 10, got, want));
    EXPECT_TRUE(mentions(res.mismatch, "core 4 row 12")) << res.mismatch;
    got.pop_back();
    EXPECT_FALSE(verifyCounts(res, 4, 10, got, want));
}

TEST(Workloads, SecondInputAlsoVerifies)
{
    auto wl = makeWorkload("SpMV");
    wl->prepare("M4", 1024);
    EXPECT_TRUE(wl->run(smallConfig(Mode::Baseline)).verified);
    EXPECT_TRUE(wl->run(smallConfig(Mode::Tmu)).verified);
}

TEST(Workloads, TmuSpeedsUpSpmv)
{
    auto wl = makeWorkload("SpMV");
    wl->prepare("M3", 256);
    RunConfig cfg = smallConfig(Mode::Baseline);
    cfg.system.cores = 4;
    const RunResult base = wl->run(cfg);
    cfg.mode = Mode::Tmu;
    const RunResult tmu = wl->run(cfg);
    ASSERT_TRUE(base.verified && tmu.verified);
    EXPECT_GT(static_cast<double>(base.sim.cycles),
              1.5 * static_cast<double>(tmu.sim.cycles))
        << "base=" << base.sim.cycles << " tmu=" << tmu.sim.cycles;
}

TEST(Workloads, TmuSpeedsUpSpkadd)
{
    auto wl = makeWorkload("SpKAdd");
    wl->prepare("M3", 256);
    RunConfig cfg = smallConfig(Mode::Baseline);
    cfg.system.cores = 4;
    const RunResult base = wl->run(cfg);
    cfg.mode = Mode::Tmu;
    const RunResult tmu = wl->run(cfg);
    ASSERT_TRUE(base.verified && tmu.verified);
    EXPECT_GT(static_cast<double>(base.sim.cycles),
              1.5 * static_cast<double>(tmu.sim.cycles))
        << "base=" << base.sim.cycles << " tmu=" << tmu.sim.cycles;
}

TEST(Workloads, RwRatioReported)
{
    auto wl = makeWorkload("SpMV");
    wl->prepare("M1", 512);
    const RunResult tmu = wl->run(smallConfig(Mode::Tmu));
    EXPECT_GT(tmu.rwRatio, 0.0);
}

TEST(Workloads, SingleLaneProgramsVerifyToo)
{
    for (const std::string name : {"SpMV", "SpMSpM"}) {
        auto wl = makeWorkload(name);
        wl->prepare("M2", 1024);
        RunConfig cfg = smallConfig(Mode::Tmu);
        cfg.programLanes = 1;
        cfg.tmu.perLaneBytes = 16 * 1024; // same total storage
        const RunResult res = wl->run(cfg);
        EXPECT_TRUE(res.verified) << name;
    }
}

TEST(Workloads, ImpComparatorPathVerifies)
{
    // The Fig. 15 IMP configuration must not perturb correctness: the
    // prefetcher reads index values but never the computation.
    auto wl = makeWorkload("SpMV");
    wl->prepare("M3", 1024);
    RunConfig cfg = smallConfig(Mode::Baseline);
    cfg.system.impPrefetcher = true;
    const RunResult res = wl->run(cfg);
    EXPECT_TRUE(res.verified);
}

TEST(Workloads, SensitivityConfigsVerify)
{
    // The Fig. 14 corner configurations (small storage, narrow SVE).
    auto wl = makeWorkload("SpMV");
    wl->prepare("M2", 1024);
    RunConfig cfg = smallConfig(Mode::Tmu);
    cfg.system.simdBits = 128;
    cfg.programLanes = 2;
    cfg.tmu.lanes = 2;
    cfg.tmu.perLaneBytes = 512;
    const RunResult res = wl->run(cfg);
    EXPECT_TRUE(res.verified);
}

TEST(Workloads, RegistryKnowsAll)
{
    EXPECT_EQ(allWorkloads().size(), 9u); // SpAdd is Fig.3-only
    const std::vector<std::string> every = registeredWorkloads();
    // The Fig. 10 set plus SpAdd and the three einsum-only workloads.
    EXPECT_EQ(every.size(), 13u);
    for (const auto &name : allWorkloads()) {
        EXPECT_NE(std::find(every.begin(), every.end(), name),
                  every.end())
            << name;
    }
    for (const auto &name : every) {
        auto wl = makeWorkload(name);
        EXPECT_EQ(wl->name(), name);
        EXPECT_FALSE(wl->inputs().empty());
    }
}

} // namespace
} // namespace tmu::workloads
