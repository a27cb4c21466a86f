/**
 * @file
 * Cycle-attribution taxonomy invariants (docs/OBSERVABILITY.md): the
 * simulator charges every core cycle to exactly one Top-Down bucket
 * and exactly one supply-view bucket, and every TMU busy cycle to
 * exactly one engine-phase bucket. The hard invariant — per unit, per
 * run, sum(buckets) == cycles — is checked here over the full
 * evaluated workload registry in both execution modes and both
 * scheduler modes (event-driven and dense reference), and fuzzed
 * through the adversarial shape classes via the SpMV plan lowering.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/statreg.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "tensor/convert.hpp"
#include "testing/shapes.hpp"
#include "workloads/registry.hpp"
#include "workloads/wl_spmv.hpp"
#include "workloads/workload.hpp"

namespace tmu {
namespace {

const char *const kCoreAttr[] = {
    "attr.retiring",       "attr.frontendBound", "attr.backendMemL1",
    "attr.backendMemL2",   "attr.backendMemLlc", "attr.backendMemDram",
    "attr.backendExec",    "attr.outqEmpty",
};
const char *const kCoreSupply[] = {
    "supply.occupied", "supply.starved", "supply.backpressured",
    "supply.drained",
};
const char *const kEngineAttr[] = {
    "attr.fill", "attr.traverse", "attr.drain", "attr.memsysStall",
    "attr.backpressure",
};

std::uint64_t
statU64(const stats::StatSnapshot &s, const std::string &name)
{
    const stats::SnapshotEntry *e = s.find(name);
    EXPECT_NE(e, nullptr) << "missing stat " << name;
    return e == nullptr ? 0 : e->u;
}

template <std::size_t N>
std::uint64_t
bucketSum(const stats::StatSnapshot &s, const std::string &prefix,
          const char *const (&buckets)[N])
{
    std::uint64_t sum = 0;
    for (const char *b : buckets)
        sum += statU64(s, prefix + b);
    return sum;
}

/**
 * sum(buckets) == cycles for every unit visible in the snapshot: the
 * aggregated core view, each individual core, and each TMU engine
 * (whose buckets must cover busyCycles exactly).
 */
void
checkSumInvariants(const stats::StatSnapshot &s, int cores,
                   const std::string &what)
{
    const std::uint64_t agg = statU64(s, "cores.cycles");
    EXPECT_EQ(bucketSum(s, "cores.", kCoreAttr), agg)
        << what << ": aggregated core attribution leaks cycles";
    EXPECT_EQ(bucketSum(s, "cores.", kCoreSupply), agg)
        << what << ": aggregated supply view leaks cycles";
    for (int c = 0; c < cores; ++c) {
        const std::string p = "core" + std::to_string(c) + ".";
        const std::uint64_t cyc = statU64(s, p + "cycles");
        EXPECT_EQ(bucketSum(s, p, kCoreAttr), cyc)
            << what << ": " << p << "attribution leaks cycles";
        EXPECT_EQ(bucketSum(s, p, kCoreSupply), cyc)
            << what << ": " << p << "supply view leaks cycles";
    }
    for (int c = 0; c < cores; ++c) {
        const std::string p = "tmu" + std::to_string(c) + ".";
        if (s.find(p + "busyCycles") == nullptr)
            continue; // baseline run: no engines
        EXPECT_EQ(bucketSum(s, p, kEngineAttr),
                  statU64(s, p + "busyCycles"))
            << what << ": " << p << "phase buckets leak busy cycles";
    }
}

constexpr int kCores = 2;
constexpr Index kScaleDiv = 512;

workloads::RunConfig
makeConfig(workloads::Mode mode, bool dense)
{
    workloads::RunConfig cfg;
    cfg.mode = mode;
    cfg.system.cores = kCores;
    cfg.system.schedDense = dense;
    return cfg;
}

/**
 * The acceptance gate: every registry workload, both execution paths,
 * both scheduler modes — each run's snapshot satisfies the per-unit
 * sum invariant, and the dense reference reproduces the event-driven
 * cycle count (attribution is charged identically in both).
 */
TEST(Attribution, RegistryWorkloadsSumInvariant)
{
    // Every registered workload, the Unlisted ones included.
    for (const std::string &name : workloads::registeredWorkloads()) {
        auto wl = workloads::makeWorkload(name);
        wl->prepare(wl->inputs().front(), kScaleDiv);
        for (const workloads::Mode mode :
             {workloads::Mode::Baseline, workloads::Mode::Tmu}) {
            const char *modeName =
                mode == workloads::Mode::Baseline ? "baseline" : "tmu";
            std::uint64_t eventCycles = 0;
            std::uint64_t eventAttr[2] = {0, 0};
            for (const bool dense : {false, true}) {
                SCOPED_TRACE(name + "/" + modeName +
                             (dense ? "/dense" : "/event"));
                const workloads::RunResult res =
                    wl->run(makeConfig(mode, dense));
                ASSERT_TRUE(res.verified);
                checkSumInvariants(res.stats, kCores,
                                   name + "/" + modeName);
                const std::uint64_t attr =
                    bucketSum(res.stats, "cores.", kCoreAttr);
                const std::uint64_t supply =
                    bucketSum(res.stats, "cores.", kCoreSupply);
                if (!dense) {
                    eventCycles = res.sim.cycles;
                    eventAttr[0] = attr;
                    eventAttr[1] = supply;
                } else {
                    EXPECT_EQ(res.sim.cycles, eventCycles);
                    EXPECT_EQ(attr, eventAttr[0]);
                    EXPECT_EQ(supply, eventAttr[1]);
                }
            }
        }
    }
}

/**
 * Fuzz the invariant through the adversarial shape classes: each
 * class's sample drives the SpMV plan lowering down both execution
 * paths. Degenerate shapes (empty, singleton, hypersparse) exercise
 * the sleep back-fill and drain classification edges that the curated
 * registry inputs never hit.
 */
TEST(Attribution, ShapeClassFuzzSumInvariant)
{
    using tensor::CsrMatrix;
    using tensor::DenseVector;
    std::uint64_t seed = 1;
    for (const testing::ShapeClass c : testing::kAllShapeClasses) {
        const std::string what =
            std::string("shape ") + testing::shapeClassName(c);
        SCOPED_TRACE(what);
        const CsrMatrix a =
            tensor::cooToCsr(testing::sampleMatrix(c, seed++));
        const DenseVector b(a.cols(), 1.0);

        for (const workloads::Mode mode :
             {workloads::Mode::Baseline, workloads::Mode::Tmu}) {
            workloads::RunConfig cfg = makeConfig(mode, false);
            workloads::RunHarness h(cfg);
            DenseVector x(a.rows());
            std::vector<plan::PlanSpec> ps;
            std::vector<plan::PlanState> st(kCores);
            ps.reserve(kCores);
            for (int core = 0; core < kCores; ++core) {
                const auto [beg, end] =
                    workloads::makePartition(workloads::PartitionKind::Rows,
                                             a.rows(), nullptr, kCores)
                        .range(core);
                plan::frontend::EinsumBindings fb;
                fb.csr["A"] = &a;
                fb.vec["B"] = &b;
                fb.outVec = &x;
                plan::frontend::CompileOptions fo;
                fo.lanes = cfg.programLanes;
                fo.beg = beg;
                fo.end = end;
                ps.push_back(plan::frontend::compileEinsum(
                                 workloads::SpmvWorkload::kEinsum, fb, fo)
                                 .valueOrFatal());
                h.addPlan(core, ps.back(), st[static_cast<size_t>(core)]);
            }
            checkSumInvariants(h.finish().stats, kCores, what);
        }
    }
}

} // namespace
} // namespace tmu
