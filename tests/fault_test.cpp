/**
 * @file
 * End-to-end fault injection: workloads run under an active fault spec
 * must degrade gracefully — every site perturbs timing only, so the
 * run still completes and its output still verifies against the
 * reference kernel — and a seeded run replays exactly.
 */

#include <gtest/gtest.h>

#include "sim/fault.hpp"
#include "workloads/registry.hpp"

using namespace tmu;
using namespace tmu::sim;
using namespace tmu::workloads;

namespace {

/** Small, fast SpMV run with the given fault plan. */
RunResult
runSpmv(Mode mode, FaultInjector *faults)
{
    auto wl = makeWorkload("SpMV");
    wl->prepare("M1", /*scaleDiv=*/2048);
    RunConfig cfg;
    cfg.system.cores = 2;
    cfg.mode = mode;
    cfg.faults = faults;
    return wl->run(cfg);
}

constexpr const char *kEverySite =
    "mem-lat=0.05:100,drop-pf=0.1,outq-stall=0.02:32,fill-delay=0.05:64";

} // namespace

TEST(FaultInjection, TimingFaultsAreMaskedAndVerified)
{
    auto spec = FaultSpec::parse(kEverySite);
    ASSERT_TRUE(spec.ok()) << spec.error().str();
    FaultInjector faults(42, *spec);

    const RunResult res = runSpmv(Mode::Tmu, &faults);
    EXPECT_TRUE(res.verified);
    EXPECT_TRUE(res.sim.completed());
    EXPECT_GT(faults.totalInjected(), 0u);
}

TEST(FaultInjection, SeededRunIsPinned)
{
    // Each site draws from its own seeded stream, so a (seed, spec)
    // pair gives the same cycles and injection counts on every run,
    // back to back in one process too. Pinned so that a change to a
    // site's stream (its seed salt, its draw order) fails here.
    auto spec = FaultSpec::parse(kEverySite);
    ASSERT_TRUE(spec.ok()) << spec.error().str();
    for (int run = 0; run < 2; ++run) {
        FaultInjector faults(42, *spec);
        const RunResult res = runSpmv(Mode::Tmu, &faults);
        EXPECT_TRUE(res.verified) << "run " << run;
        EXPECT_EQ(res.sim.cycles, 4019u) << "run " << run;
        EXPECT_EQ(faults.injected(FaultKind::MemLatencySpike), 347u);
        EXPECT_EQ(faults.injected(FaultKind::DropPrefetch), 61u);
        EXPECT_EQ(faults.injected(FaultKind::OutqStall), 18u);
        EXPECT_EQ(faults.injected(FaultKind::FillDelay), 159u);
    }
}

TEST(FaultInjection, MixedSpecStaysAccountedAcrossSeeds)
{
    // Whatever the seed, the output must still verify.
    auto spec = FaultSpec::parse("mem-lat=0.02:150,outq-stall=0.005");
    ASSERT_TRUE(spec.ok()) << spec.error().str();

    for (const std::uint64_t seed : {1234ULL, 99ULL}) {
        FaultInjector f(seed, *spec);
        const RunResult r = runSpmv(Mode::Tmu, &f);
        EXPECT_TRUE(r.verified) << "seed " << seed;
        EXPECT_TRUE(r.sim.completed()) << "seed " << seed;
        EXPECT_GT(f.totalInjected(), 0u) << "seed " << seed;
    }
}

TEST(FaultInjection, LatencyFaultsSlowTheRunDown)
{
    const RunResult clean = runSpmv(Mode::Tmu, nullptr);

    auto spec = FaultSpec::parse("mem-lat=0.5:500");
    ASSERT_TRUE(spec.ok());
    FaultInjector faults(3, *spec);
    const RunResult slow = runSpmv(Mode::Tmu, &faults);

    EXPECT_TRUE(clean.verified);
    EXPECT_TRUE(slow.verified);
    EXPECT_GT(faults.totalInjected(), 0u);
    // Heavy latency injection must actually cost cycles, proving the
    // injected latency reaches the timing model.
    EXPECT_GT(slow.sim.cycles, clean.sim.cycles);
}

TEST(FaultInjection, BaselineModeTakesMemFaults)
{
    auto spec = FaultSpec::parse("mem-lat=0.05:200");
    ASSERT_TRUE(spec.ok());
    FaultInjector faults(11, *spec);

    const RunResult res = runSpmv(Mode::Baseline, &faults);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(faults.totalInjected(), 0u);
}

TEST(FaultInjection, StatsAppearInTheSnapshot)
{
    auto spec = FaultSpec::parse("outq-stall=0.01");
    ASSERT_TRUE(spec.ok());
    FaultInjector faults(7, *spec);

    const RunResult res = runSpmv(Mode::Tmu, &faults);
    bool sawInjected = false, sawSite = false, sawTermination = false;
    for (const auto &e : res.stats.entries) {
        if (e.name == "faults.injected") {
            sawInjected = true;
            EXPECT_GT(e.u, 0u);
        }
        if (e.name == "faults.outq-stall.injected") {
            sawSite = true;
            EXPECT_GT(e.u, 0u);
        }
        if (e.name == "sim.terminationReason") {
            sawTermination = true;
            EXPECT_EQ(e.u, 0u); // completed
        }
    }
    EXPECT_TRUE(sawInjected);
    EXPECT_TRUE(sawSite);
    EXPECT_TRUE(sawTermination);
}
