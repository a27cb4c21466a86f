/**
 * @file
 * Tests for src/sim: cache/MSHR mechanics, branch prediction,
 * prefetchers (stride, best-offset, IMP), DRAM bandwidth accounting,
 * and end-to-end core behaviours (MLP limits, branch-flush frontend
 * stalls, pointer-chase serialization, multicore contention).
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "sim/branch.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/memsys.hpp"
#include "sim/prefetch.hpp"
#include "sim/statsdump.hpp"
#include "sim/system.hpp"

namespace tmu::sim {
namespace {

// --- Cache ------------------------------------------------------------------

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.sizeBytes = 4 * 1024; // 16 sets x 4 ways
    cfg.ways = 4;
    cfg.latency = 2;
    cfg.mshrs = 2;
    return cfg;
}

TEST(Cache, MissThenHit)
{
    Cache c("t", smallCache());
    auto miss = [](Cycle t) { return t + 100; };
    const CacheAccess first = c.access(0, 10, false, miss);
    EXPECT_TRUE(first.accepted);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.complete, 112u); // 10 + lat 2 + 100

    // After the fill completes, the same line is a tag hit.
    const CacheAccess second = c.access(0, 200, false, miss);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.complete, 202u);
}

TEST(Cache, SecondaryMissMerges)
{
    Cache c("t", smallCache());
    auto miss = [](Cycle t) { return t + 100; };
    const CacheAccess first = c.access(0, 10, false, miss);
    // Another access to the same line before the fill: merged, same
    // completion, no new MSHR.
    const CacheAccess second = c.access(0, 20, false, miss);
    EXPECT_TRUE(second.accepted);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.complete, first.complete);
    EXPECT_EQ(c.inflight(), 1);
}

TEST(Cache, MshrLimitRejects)
{
    Cache c("t", smallCache()); // 2 MSHRs
    auto miss = [](Cycle t) { return t + 100; };
    EXPECT_TRUE(c.access(0 * 64, 10, false, miss).accepted);
    EXPECT_TRUE(c.access(1 * 64, 10, false, miss).accepted);
    EXPECT_FALSE(c.access(2 * 64, 10, false, miss).accepted);
    // Once the fills complete, MSHRs free up.
    EXPECT_TRUE(c.access(2 * 64, 200, false, miss).accepted);
}

TEST(Cache, RepeatRefusalCountsLikeAccess)
{
    // Fill both MSHRs (fills at 112), then refuse line X.
    Cache c("t", smallCache());
    auto miss = [](Cycle t) { return t + 100; };
    const Addr x = 2 * 64;
    ASSERT_TRUE(c.access(0 * 64, 10, false, miss).accepted);
    ASSERT_TRUE(c.access(1 * 64, 10, false, miss).accepted);
    ASSERT_FALSE(c.access(x, 10, false, miss).accepted);
    const std::uint64_t epoch = c.epoch();

    // A repeat before the earliest fill is counted exactly as
    // access() counts it.
    {
        Cache viaAccess = c;
        ASSERT_FALSE(viaAccess.access(x, 111, false, miss).accepted);
        Cache viaRule = c;
        ASSERT_TRUE(viaRule.refusalStands(epoch, 111));
        viaRule.countRefusal();
        EXPECT_EQ(viaRule.accesses(), viaAccess.accesses());
        EXPECT_EQ(viaRule.rejects(), viaAccess.rejects());
        EXPECT_EQ(viaRule.hits(), viaAccess.hits());
        EXPECT_EQ(viaRule.misses(), viaAccess.misses());
        EXPECT_EQ(viaRule.epoch(), viaAccess.epoch());
    }
    // X entered the tags: no refusal, and the retry hits.
    {
        Cache direct = c;
        direct.installDirect(x, false);
        EXPECT_FALSE(direct.refusalStands(epoch, 50));
        EXPECT_TRUE(direct.access(x, 50, false, miss).hit);
    }
    // At or after the earliest fill an MSHR frees up.
    {
        Cache late = c;
        EXPECT_FALSE(late.refusalStands(epoch, 112));
        EXPECT_FALSE(late.refusalStands(epoch, 500));
        EXPECT_TRUE(late.access(x, 112, false, miss).accepted);
    }
    // MSHRs freed and allocated again (full once more, X among them).
    {
        Cache cycled = c;
        ASSERT_TRUE(cycled.access(x, 112, false, miss).accepted);
        ASSERT_TRUE(cycled.access(3 * 64, 112, false, miss).accepted);
        EXPECT_EQ(cycled.freeMshrs(120), 0);
        EXPECT_FALSE(cycled.refusalStands(epoch, 120));
        EXPECT_TRUE(cycled.access(x, 120, false, miss).accepted);
    }
}

TEST(Cache, LruEviction)
{
    CacheConfig cfg = smallCache();
    cfg.sizeBytes = 2 * 64 * 1; // 1 set... minimum: ways*64
    cfg.ways = 2;
    Cache c("t", cfg);
    auto miss = [](Cycle t) { return t + 10; };

    // Fill both ways of the single set, then touch line A.
    // Lines must map to the same set: with 1 set everything collides.
    c.access(0 * 64, 10, false, miss);
    c.access(1 * 64, 11, false, miss);
    c.access(0 * 64, 100, false, miss); // A now MRU
    // New line evicts the LRU (line 1).
    c.access(2 * 64, 200, false, miss);
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(1 * 64));
    EXPECT_TRUE(c.contains(2 * 64));
}

TEST(Cache, DirtyEvictionReported)
{
    CacheConfig cfg = smallCache();
    cfg.sizeBytes = 64;
    cfg.ways = 1;
    Cache c("t", cfg);
    auto miss = [](Cycle t) { return t + 10; };
    Addr evicted = 0;
    c.access(0, 10, true, miss, &evicted); // write-allocate, dirty
    EXPECT_EQ(evicted, 0u);
    c.access(64, 100, false, miss, &evicted); // evicts dirty line 0
    EXPECT_EQ(evicted, 0u * 64); // line address 0 is reported... but 0
    // Line 0's address is 0, indistinguishable from "none": use
    // different lines to check reporting.
    evicted = 0;
    c.access(128, 200, true, miss, &evicted); // evicts clean line 64
    EXPECT_EQ(evicted, 0u);
    c.access(192, 300, false, miss, &evicted); // evicts dirty 128
    EXPECT_EQ(evicted, 128u);
}

TEST(Cache, InstallDirect)
{
    Cache c("t", smallCache());
    EXPECT_FALSE(c.contains(64));
    c.installDirect(64, true);
    EXPECT_TRUE(c.contains(64));
    auto miss = [](Cycle t) { return t + 100; };
    const CacheAccess a = c.access(64, 10, false, miss);
    EXPECT_TRUE(a.hit);
}

// --- Branch predictor ---------------------------------------------------------

TEST(Gshare, LearnsBiasedBranch)
{
    GsharePredictor p(10);
    // Always-taken branch: after warmup, no mispredicts.
    for (int i = 0; i < 64; ++i)
        p.predict(7, true);
    const auto before = p.mispredicts();
    for (int i = 0; i < 1000; ++i)
        p.predict(7, true);
    EXPECT_EQ(p.mispredicts(), before);
}

TEST(Gshare, LearnsShortLoopPattern)
{
    GsharePredictor p(12);
    // taken x7, not-taken x1 repeating: gshare history captures it.
    for (int warm = 0; warm < 200; ++warm) {
        for (int i = 0; i < 7; ++i)
            p.predict(3, true);
        p.predict(3, false);
    }
    const auto before = p.mispredicts();
    int wrong = 0;
    for (int rep = 0; rep < 100; ++rep) {
        for (int i = 0; i < 7; ++i)
            wrong += !p.predict(3, true);
        wrong += !p.predict(3, false);
    }
    (void)before;
    EXPECT_LT(wrong, 40); // >95% accuracy on the learned pattern
}

TEST(Gshare, RandomBranchesMispredictOften)
{
    GsharePredictor p(12);
    Rng rng(5);
    int wrong = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        wrong += !p.predict(9, rng.nextBool(0.5));
    EXPECT_GT(wrong, n / 4); // near-chance on random outcomes
}

// --- Prefetchers ---------------------------------------------------------------

TEST(Stride, DetectsUnitLineStride)
{
    StridePrefetcher pf(2);
    PrefetchList out;
    for (int i = 0; i < 6; ++i)
        pf.observe(static_cast<Addr>(i) * 64, out);
    ASSERT_FALSE(out.empty());
    // After confidence builds, prefetches land ahead of the stream.
    EXPECT_EQ(out.back() % 64, 0u);
    EXPECT_GT(out.back(), 5u * 64);
}

TEST(Stride, CountsOnlyCandidatesItEmits)
{
    // A confident stride runs into the end of its 4 KiB page: targets
    // past the page end are dropped, and must not count as candidates.
    StridePrefetcher pf(2);
    PrefetchList out;
    for (Addr a = 4096 - 6 * 64; a < 4096; a += 64)
        pf.observe(a, out);
    EXPECT_FALSE(out.empty());
    EXPECT_EQ(pf.candidates(), out.size());
}

TEST(Stride, NoPrefetchOnRandom)
{
    StridePrefetcher pf(2);
    PrefetchList out;
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        // Random lines within one page: strides keep changing.
        pf.observe(rng.nextBounded(64) * 64, out);
    }
    // Some accidental repeats can trigger a few, but far fewer than
    // the confident sequential case (which fires ~2 per access).
    EXPECT_LT(out.size(), 30u);
}

TEST(BestOffset, ConvergesToStreamOffset)
{
    BestOffsetPrefetcher pf;
    PrefetchList out;
    // Stream with line stride 2.
    for (int i = 0; i < 4000; ++i)
        pf.observe(static_cast<Addr>(i * 2) * 64, out);
    EXPECT_EQ(pf.currentOffset() % 2, 0); // a multiple of the stride
    EXPECT_FALSE(out.empty());
}

TEST(Imp, TrainsAndPrefetchesIndirect)
{
    // B[idx[i]] with a real index array and target array.
    std::vector<Index> idx(256);
    Rng rng(13);
    for (auto &v : idx)
        v = rng.nextIndex(0, 1000);
    std::vector<double> b(1000, 0.0);

    ImpPrefetcher::Config cfg;
    cfg.distance = 4;
    ImpPrefetcher imp(cfg);
    imp.addIndexRegion(reinterpret_cast<Addr>(idx.data()),
                       idx.size() * sizeof(Index));

    PrefetchList out;
    for (size_t i = 0; i + 4 < idx.size(); ++i) {
        const Addr prod = reinterpret_cast<Addr>(&idx[i]);
        const Addr cons = reinterpret_cast<Addr>(&b[idx[i]]);
        imp.observe(prod, cons, out);
        if (imp.trained() && i > 8) {
            // The last prefetch must target b[idx[i + 4]]'s line.
            const Addr want = lineAddr(
                reinterpret_cast<Addr>(&b[idx[i + 4]]));
            ASSERT_FALSE(out.empty());
            EXPECT_EQ(out.back(), want);
        }
    }
    EXPECT_TRUE(imp.trained());
}

TEST(Imp, IgnoresUnregisteredProducers)
{
    ImpPrefetcher imp;
    std::vector<Index> idx(16, 3);
    PrefetchList out;
    imp.observe(reinterpret_cast<Addr>(idx.data()), 0x1000, out);
    EXPECT_TRUE(out.empty());
    EXPECT_FALSE(imp.trained());
}

// --- TLB ---------------------------------------------------------------------

TEST(Tlb, HitLevelsAndLatencies)
{
    TlbConfig cfg;
    cfg.l1Entries = 2;
    cfg.l2Entries = 4;
    Tlb tlb(cfg);

    // Cold: full walk.
    EXPECT_EQ(tlb.access(0x0000).levelHit, 3);
    EXPECT_EQ(tlb.access(0x0000).levelHit, 1); // warm L1
    EXPECT_EQ(tlb.access(0x0000).extraLatency, 0u);

    // Two more pages evict page 0 from the tiny L1 but not L2.
    tlb.access(0x1000);
    tlb.access(0x2000);
    const TlbAccess back = tlb.access(0x0000);
    EXPECT_EQ(back.levelHit, 2);
    EXPECT_EQ(back.extraLatency, cfg.l2Latency);
    EXPECT_GE(tlb.walks(), 3u);
}

TEST(Tlb, L2CapacityEvicts)
{
    TlbConfig cfg;
    cfg.l1Entries = 1;
    cfg.l2Entries = 2;
    Tlb tlb(cfg);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.access(0x2000); // evicts page 0 from L2
    EXPECT_EQ(tlb.access(0x0000).levelHit, 3);
}

TEST(Tlb, TmuPathUsesL2Only)
{
    Tlb tlb;
    // A core access warms both levels; the TMU path hits L2 and pays
    // its latency (paper Sec. 5.6: the TMU queries the L2 TLB).
    tlb.access(0x5000);
    const TlbAccess t = tlb.accessL2(0x5000);
    EXPECT_EQ(t.levelHit, 2);
    EXPECT_GT(t.extraLatency, 0u);
}

TEST(Tlb, SpreadAccessesSlowWithModelOn)
{
    // Loads scattered over many pages: with the TLB modeled, the run
    // takes longer and the TLB records walks.
    const Index n = 1 << 15; // 256 KiB = 64 pages
    std::vector<Index> perm(static_cast<size_t>(n));
    std::iota(perm.begin(), perm.end(), Index{0});
    Rng rng(29);
    for (Index i = n - 1; i > 0; --i) {
        std::swap(perm[static_cast<size_t>(i)],
                  perm[static_cast<size_t>(rng.nextIndex(0, i + 1))]);
    }
    auto scattered = [](const std::vector<Index> &p) -> Trace {
        for (Index i = 0; i < static_cast<Index>(p.size()); i += 8) {
            co_yield MicroOp::load(
                addrOf(p.data(), p[static_cast<size_t>(i)]), 8);
        }
        co_yield MicroOp::halt();
    };

    SystemConfig cfg = SystemConfig::neoverseN1();
    cfg.cores = 1;
    cfg.tlb.l1Entries = 4;
    cfg.tlb.l2Entries = 8;

    cfg.modelTlb = false;
    System off(cfg);
    CoroutineSource srcOff(scattered(perm));
    off.attachSource(0, &srcOff);
    const SimResult without = off.run();

    cfg.modelTlb = true;
    System on(cfg);
    CoroutineSource srcOn(scattered(perm));
    on.attachSource(0, &srcOn);
    const SimResult with = on.run();

    EXPECT_GT(with.cycles, without.cycles);
    EXPECT_GT(on.mem().tlb(0).walks(), 100u);
}

// --- Memory system ---------------------------------------------------------------

TEST(MemSys, HitLatencyLadder)
{
    SystemConfig cfg = SystemConfig::neoverseN1();
    cfg.l1StridePrefetcher = false;
    cfg.l2BestOffsetPrefetcher = false;
    MemorySystem mem(cfg);

    std::vector<double> data(8, 0.0);
    const Addr a = reinterpret_cast<Addr>(data.data());

    const MemAccess cold = mem.coreAccess(0, a, false, 100);
    ASSERT_TRUE(cold.accepted);
    const Cycle coldLat = cold.complete - 100;
    EXPECT_GT(coldLat, cfg.mem.dramLatency); // went to DRAM

    const Cycle warmStart = cold.complete + 10;
    const MemAccess warm = mem.coreAccess(0, a, false, warmStart);
    EXPECT_EQ(warm.levelHit, 1);
    EXPECT_EQ(warm.complete - warmStart, cfg.l1.latency);
}

TEST(MemSys, DramBandwidthSerializes)
{
    SystemConfig cfg = SystemConfig::neoverseN1();
    cfg.l1StridePrefetcher = false;
    cfg.l2BestOffsetPrefetcher = false;
    cfg.mem.memChannels = 1;
    MemorySystem mem(cfg);

    // Many distinct lines at the same cycle: completions spread out by
    // the line service time. (L1 has 32 MSHRs, so 32 lines fit.)
    constexpr int kLines = 32;
    std::vector<double> data(kLines * 8, 0.0);
    std::vector<Cycle> completes;
    for (int i = 0; i < kLines; ++i) {
        const Addr a =
            reinterpret_cast<Addr>(data.data()) + static_cast<Addr>(i) * 64;
        const MemAccess res = mem.coreAccess(0, a, false, 10);
        ASSERT_TRUE(res.accepted);
        completes.push_back(res.complete);
    }
    std::sort(completes.begin(), completes.end());
    const double service = cfg.mem.lineServiceCycles();
    // The span must reflect bandwidth serialization; the slack covers
    // row-buffer hit/miss variance at arbitrary host alignments.
    EXPECT_GE(static_cast<double>(completes.back() - completes.front()),
              service * (kLines - 1) -
                  static_cast<double>(cfg.mem.dramLatency));
    EXPECT_EQ(mem.dramStats().readBytes,
              static_cast<std::uint64_t>(kLines) * 64u);
}

TEST(MemSys, TmuPathEntersAtLlc)
{
    SystemConfig cfg = SystemConfig::neoverseN1();
    MemorySystem mem(cfg);
    std::vector<double> data(8, 0.0);
    const Addr a = reinterpret_cast<Addr>(data.data());

    const MemAccess first = mem.tmuAccess(0, a, 50);
    ASSERT_TRUE(first.accepted);
    // Second access hits in the LLC, far faster than DRAM.
    const MemAccess second = mem.tmuAccess(0, a, first.complete + 1);
    EXPECT_LT(second.complete - (first.complete + 1),
              cfg.mem.dramRowHitLatency);
    // And the L1 was never involved.
    EXPECT_EQ(mem.l1(0).accesses(), 0u);
}

TEST(MemSys, OutqInstallMakesL2Hit)
{
    SystemConfig cfg = SystemConfig::neoverseN1();
    cfg.l1StridePrefetcher = false;
    cfg.l2BestOffsetPrefetcher = false;
    MemorySystem mem(cfg);
    std::vector<double> chunk(8, 0.0);
    const Addr a = reinterpret_cast<Addr>(chunk.data());

    mem.outqInstall(0, a, 10);
    const MemAccess res = mem.coreAccess(0, a, false, 20);
    ASSERT_TRUE(res.accepted);
    // L1 miss but L2 hit: completion = L1 lat + L2 lat.
    EXPECT_LE(res.complete - 20, cfg.l1.latency + cfg.l2.latency + 1);
}

// --- Core / System end-to-end ------------------------------------------------------

/** n independent sequential vector loads (streaming kernel). */
Trace
streamingTrace(const double *base, Index n)
{
    for (Index i = 0; i < n; i += 8) {
        co_yield MicroOp::load(addrOf(base, i), 64);
        co_yield MicroOp::flop(16);
        co_yield MicroOp::branch(1, i + 8 < n);
    }
    co_yield MicroOp::halt();
}

/** Pointer-chase: each load's address depends on the previous one. */
Trace
chaseTrace(const std::vector<Index> &next, Index hops)
{
    Index cur = 0;
    for (Index i = 0; i < hops; ++i) {
        co_yield MicroOp::load(addrOf(next.data(), cur), 8, 1);
        cur = next[static_cast<size_t>(cur)];
    }
    co_yield MicroOp::halt();
}

/** Random data-dependent branches (merge-like control flow). */
Trace
branchyTrace(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    for (Index i = 0; i < n; ++i) {
        co_yield MicroOp::iop();
        co_yield MicroOp::branch(2, rng.nextBool(0.5));
    }
    co_yield MicroOp::halt();
}

SimResult
runOneCore(Trace trace, SystemConfig cfg)
{
    cfg.cores = 1;
    System sys(cfg);
    CoroutineSource src(std::move(trace));
    sys.attachSource(0, &src);
    return sys.run();
}

TEST(CoreSystem, CycleClassesPartitionTotal)
{
    std::vector<double> data(1 << 14, 1.0);
    const SimResult res = runOneCore(
        streamingTrace(data.data(), 1 << 14),
        SystemConfig::neoverseN1());
    EXPECT_GT(res.cycles, 0u);
    EXPECT_EQ(res.total.commitCycles + res.total.frontendStallCycles +
                  res.total.backendStallCycles,
              res.total.cycles);
    EXPECT_GT(res.total.flops, 0u);
}

TEST(CoreSystem, StreamingMostlyCommits)
{
    std::vector<double> data(1 << 15, 1.0);
    const SimResult res = runOneCore(
        streamingTrace(data.data(), 1 << 15),
        SystemConfig::neoverseN1());
    // Prefetchers + MLP keep a streaming kernel busy.
    EXPECT_GT(res.commitFrac(), 0.25);
    EXPECT_LT(res.frontendFrac(), 0.2); // loop branch is predictable
}

TEST(CoreSystem, PointerChaseIsBackendBound)
{
    // A randomized cycle through a 16 MiB array (beyond the LLC)
    // defeats caches and serializes on the dependent load.
    const Index n = 1 << 21;
    std::vector<Index> next(static_cast<size_t>(n));
    std::iota(next.begin(), next.end(), Index{0});
    Rng rng(17);
    for (Index i = n - 1; i > 0; --i) {
        std::swap(next[static_cast<size_t>(i)],
                  next[static_cast<size_t>(rng.nextIndex(0, i + 1))]);
    }
    const SimResult res =
        runOneCore(chaseTrace(next, 20000), SystemConfig::neoverseN1());
    EXPECT_GT(res.backendFrac(), 0.8);
    // Latency per hop ~ DRAM latency: serialization happened.
    const double cyclesPerHop =
        static_cast<double>(res.cycles) / 20000.0;
    EXPECT_GT(cyclesPerHop, 40.0);
}

TEST(CoreSystem, RandomBranchesCauseFrontendStalls)
{
    const SimResult res = runOneCore(branchyTrace(30000, 21),
                                     SystemConfig::neoverseN1());
    EXPECT_GT(res.frontendFrac(), 0.4);
    EXPECT_GT(res.total.mispredicts, 5000u);
}

TEST(CoreSystem, IndependentLoadsBeatDependentLoads)
{
    // Same cache-defeating access pattern; only the dependency differs.
    const Index n = 1 << 21;
    std::vector<Index> perm(static_cast<size_t>(n));
    std::iota(perm.begin(), perm.end(), Index{0});
    Rng rng(23);
    for (Index i = n - 1; i > 0; --i) {
        std::swap(perm[static_cast<size_t>(i)],
                  perm[static_cast<size_t>(rng.nextIndex(0, i + 1))]);
    }
    const Index hops = 12000;

    auto independent = [](const std::vector<Index> &p,
                          Index count) -> Trace {
        for (Index i = 0; i < count; ++i) {
            co_yield MicroOp::load(
                addrOf(p.data(), p[static_cast<size_t>(
                                     i % static_cast<Index>(p.size()))]),
                8);
        }
        co_yield MicroOp::halt();
    };

    const SimResult dep =
        runOneCore(chaseTrace(perm, hops), SystemConfig::neoverseN1());
    const SimResult ind = runOneCore(independent(perm, hops),
                                     SystemConfig::neoverseN1());
    // MLP: independent misses overlap, dependent ones serialize.
    EXPECT_GT(static_cast<double>(dep.cycles),
              2.5 * static_cast<double>(ind.cycles));
}

TEST(CoreSystem, MulticoreContentionSlowsStreams)
{
    SystemConfig cfg = SystemConfig::neoverseN1();
    cfg.mem.memChannels = 1; // tighten the bandwidth roof
    const Index n = 1 << 15;

    std::vector<std::vector<double>> data(8);
    for (auto &d : data)
        d.assign(static_cast<size_t>(n), 1.0);

    // One core alone.
    cfg.cores = 1;
    System solo(cfg);
    CoroutineSource soloSrc(streamingTrace(data[0].data(), n));
    solo.attachSource(0, &soloSrc);
    const SimResult one = solo.run();

    // Eight cores streaming different arrays.
    cfg.cores = 8;
    System many(cfg);
    std::vector<std::unique_ptr<CoroutineSource>> srcs;
    for (int c = 0; c < 8; ++c) {
        srcs.push_back(std::make_unique<CoroutineSource>(
            streamingTrace(data[static_cast<size_t>(c)].data(), n)));
        many.attachSource(c, srcs.back().get());
    }
    const SimResult eight = many.run();
    EXPECT_GT(static_cast<double>(eight.cycles),
              1.5 * static_cast<double>(one.cycles));
}

TEST(CoreSystem, AchievedBandwidthBelowPeak)
{
    std::vector<double> data(1 << 16, 1.0);
    SystemConfig cfg = SystemConfig::neoverseN1();
    const SimResult res =
        runOneCore(streamingTrace(data.data(), 1 << 16), cfg);
    EXPECT_GT(res.achievedGBs, 0.0);
    EXPECT_LE(res.achievedGBs, cfg.mem.peakGBs() * 1.05);
}

TEST(StatsDump, ReportsAllSections)
{
    std::vector<double> data(1 << 12, 1.0);
    SystemConfig cfg = SystemConfig::neoverseN1();
    cfg.cores = 1;
    System sys(cfg);
    CoroutineSource src(streamingTrace(data.data(), 1 << 12));
    sys.attachSource(0, &src);
    const SimResult res = sys.run();
    const std::string report = dumpStats(res, sys.mem());
    for (const char *key :
         {"sim.cycles", "cores.commitCycles", "core0.l1.hitRate",
          "llc.hitRate", "dram.readBytes", "cores.supplyWaitCycles"}) {
        EXPECT_NE(report.find(key), std::string::npos) << key;
    }
    // No TLB section unless the TLB is modeled.
    EXPECT_EQ(report.find("tlb.walks"), std::string::npos);
}

TEST(CoreSystem, ConfigPresetsDiffer)
{
    const SystemConfig a = SystemConfig::a64fxLike();
    const SystemConfig g = SystemConfig::graviton3Like();
    EXPECT_LT(a.core.robEntries, g.core.robEntries);
    EXPECT_GT(a.mem.peakGBs(), g.mem.peakGBs());
    EXPECT_LT(a.llcSlice.sizeBytes, g.llcSlice.sizeBytes);
    EXPECT_FALSE(a.describe().empty());
}

} // namespace
} // namespace tmu::sim
