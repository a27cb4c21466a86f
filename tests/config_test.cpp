/**
 * @file
 * Parameterized topology + partitioning: SystemConfig::validate()
 * over the mesh constraint space, parseMeshSpec caret diagnostics,
 * PartitionStrategy invariants across shapes and core counts, and the
 * pinned cycle-identity of the default Table-5 topology under both
 * scheduler modes.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "sim/config.hpp"
#include "workloads/partition.hpp"
#include "workloads/registry.hpp"
#include "workloads/workload.hpp"

using namespace tmu;
using namespace tmu::sim;
using namespace tmu::workloads;

// ---------------------------------------------------------------------
// validate(): the mesh constraint space.

TEST(ConfigValidate, DefaultIsValid)
{
    EXPECT_TRUE(SystemConfig().validate().ok());
}

TEST(ConfigValidate, EveryPresetIsValid)
{
    for (const std::string &name : SystemConfig::presetNames())
        EXPECT_TRUE(SystemConfig::preset(name)->validate().ok())
            << name;
}

TEST(ConfigValidate, RejectsDegenerateMesh)
{
    SystemConfig cfg;
    cfg.mem.meshW = 0;
    const auto r = cfg.validate();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), Errc::ConfigError);
    EXPECT_NE(r.error().message().find("mesh geometry"),
              std::string::npos);

    cfg.mem.meshW = 4;
    cfg.mem.meshH = -1;
    EXPECT_FALSE(cfg.validate().ok());
}

TEST(ConfigValidate, RejectsMoreCoresThanTiles)
{
    SystemConfig cfg;
    cfg.cores = 17; // 4x4 mesh: 16 tiles
    const auto r = cfg.validate();
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message().find("cannot host 17 cores"),
              std::string::npos);
}

TEST(ConfigValidate, RejectsMoreSlicesThanSliceRows)
{
    // Slices live on rows floor(H/2)..H-1: a 4x4 mesh has 8 slice
    // tiles, a 4x3 mesh also 8 (rows 1-2), a 4x1 mesh only 4.
    SystemConfig cfg;
    cfg.mem.llcSlices = 9;
    EXPECT_FALSE(cfg.validate().ok());

    cfg.mem.llcSlices = 8;
    cfg.mem.meshH = 3;
    EXPECT_TRUE(cfg.validate().ok());

    cfg.mem.meshH = 1;
    cfg.cores = 4;
    const auto r = cfg.validate();
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message().find("slice tiles"),
              std::string::npos);
}

TEST(ConfigValidate, RejectsMoreChannelsThanTiles)
{
    SystemConfig cfg;
    cfg.mem.memChannels = 17;
    const auto r = cfg.validate();
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message().find("HBM channel stops"),
              std::string::npos);
}

TEST(ConfigValidate, AcceptsRectangularScaleOuts)
{
    // The mesh presets the core_scaling bench sweeps.
    const struct { int cores, w, h; } topos[] = {
        {8, 4, 4}, {16, 8, 2}, {32, 8, 4}, {64, 8, 8},
    };
    for (const auto &t : topos) {
        SystemConfig cfg;
        cfg.cores = t.cores;
        cfg.mem.meshW = t.w;
        cfg.mem.meshH = t.h;
        EXPECT_TRUE(cfg.validate().ok()) << t.w << "x" << t.h;
    }
}

TEST(ConfigValidate, DescribeRendersActualGeometry)
{
    SystemConfig cfg;
    cfg.mem.meshW = 8;
    cfg.mem.meshH = 2;
    EXPECT_NE(cfg.describe().find("on a 8x2 mesh"),
              std::string::npos);
    EXPECT_NE(SystemConfig().describe().find("on a 4x4 mesh"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// parseMeshSpec(): values and caret diagnostics.

TEST(ParseMeshSpec, AcceptsWxH)
{
    const auto r = parseMeshSpec("8x2");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->first, 8);
    EXPECT_EQ(r->second, 2);
    EXPECT_EQ(parseMeshSpec("16X16")->first, 16); // 'X' also accepted
    EXPECT_EQ(parseMeshSpec("1x1024")->second, 1024);
}

TEST(ParseMeshSpec, CaretPointsAtBadSeparator)
{
    const auto r = parseMeshSpec("8y2");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), Errc::ParseError);
    EXPECT_EQ(r.error().message(),
              "--mesh:1:2: expected 'x' between mesh width and "
              "height\n  8y2\n   ^");
}

TEST(ParseMeshSpec, CaretPointsAtMissingParts)
{
    const auto missingW = parseMeshSpec("x4");
    ASSERT_FALSE(missingW.ok());
    EXPECT_NE(missingW.error().message().find(
                  ":1:1: expected mesh width"),
              std::string::npos);

    const auto missingH = parseMeshSpec("4x");
    ASSERT_FALSE(missingH.ok());
    EXPECT_NE(missingH.error().message().find(
                  ":1:3: expected mesh height"),
              std::string::npos);

    const auto trailing = parseMeshSpec("4x4x4");
    ASSERT_FALSE(trailing.ok());
    EXPECT_NE(trailing.error().message().find(
                  ":1:4: trailing characters"),
              std::string::npos);
}

TEST(ParseMeshSpec, RangeCheckedEvenForHugeNumbers)
{
    // The digit parser clamps instead of overflowing, so an absurd
    // width still produces the range message, not a mid-number caret.
    const auto r = parseMeshSpec("99999999999x2");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message().find("must be in [1, 1024]"),
              std::string::npos);
    EXPECT_FALSE(parseMeshSpec("0x4").ok());
    EXPECT_FALSE(parseMeshSpec("4x1025").ok());
}

// ---------------------------------------------------------------------
// Partition invariants.

namespace {

/** Every row in [0, total) assigned to exactly one core, in order. */
void
expectCovers(const Partition &p)
{
    ASSERT_EQ(p.bounds.size(), static_cast<size_t>(p.cores) + 1);
    EXPECT_EQ(p.bounds.front(), 0);
    EXPECT_EQ(p.bounds.back(), p.total);
    Index covered = 0;
    for (int c = 0; c < p.cores; ++c) {
        const auto [beg, end] = p.range(c);
        EXPECT_LE(beg, end);
        covered += end - beg;
    }
    EXPECT_EQ(covered, p.total);
}

/** Synthetic prefix-sum array over @p lens. */
std::vector<Index>
prefixOf(const std::vector<Index> &lens)
{
    std::vector<Index> prefix(lens.size() + 1, 0);
    std::partial_sum(lens.begin(), lens.end(), prefix.begin() + 1);
    return prefix;
}

std::uint64_t
peakOf(const Partition &p)
{
    std::uint64_t peak = 0;
    for (const std::uint64_t n : p.nnzAssigned)
        peak = std::max(peak, n);
    return peak;
}

} // namespace

TEST(Partition, RowsMatchesHistoricalChunking)
{
    // PartitionKind::Rows must reproduce the old inline partition()
    // exactly — default-run cycle identity depends on it.
    for (const Index total : {0, 1, 7, 64, 100, 1000}) {
        const Partition p =
            makePartition(PartitionKind::Rows, total, nullptr, 8);
        expectCovers(p);
        const Index chunk = (total + 7) / 8;
        for (int c = 0; c < 8; ++c) {
            EXPECT_EQ(p.range(c).first,
                      std::min<Index>(total, chunk * c));
        }
    }
}

TEST(Partition, EveryKindCoversEveryShape)
{
    Rng rng(0xC04E5CA1E);
    for (const int cores : {1, 2, 3, 8, 16, 64}) {
        for (const Index total : {0, 1, 5, 63, 64, 65, 1000}) {
            std::vector<Index> lens(static_cast<size_t>(total));
            for (auto &l : lens)
                l = rng.nextIndex(0, 40);
            const auto prefix = prefixOf(lens);
            for (const PartitionKind kind : partitionKinds()) {
                const Partition p = makePartition(
                    kind, total, prefix.data(), cores);
                expectCovers(p);
                // nnzAssigned must add up to the whole matrix.
                const std::uint64_t sum = std::accumulate(
                    p.nnzAssigned.begin(), p.nnzAssigned.end(),
                    std::uint64_t{0});
                EXPECT_EQ(sum, static_cast<std::uint64_t>(
                                   prefix.back()));
            }
        }
    }
}

TEST(Partition, NnzBalancedNeverWorseThanRows)
{
    // The nnz split is the optimal contiguous min-max partition, so
    // its peak can never exceed the equal-rows peak — on any input,
    // at any core count.
    Rng rng(0xBA1A4CED);
    for (const int cores : {2, 16, 64}) {
        for (int trial = 0; trial < 8; ++trial) {
            std::vector<Index> lens(1000);
            for (auto &l : lens) {
                // Heavy-tailed: mostly short rows, occasional hubs.
                const Index draw = rng.nextIndex(0, 100);
                l = draw < 95 ? rng.nextIndex(0, 8)
                              : rng.nextIndex(100, 400);
            }
            const auto prefix = prefixOf(lens);
            const Partition rows = makePartition(
                PartitionKind::Rows, 1000, prefix.data(), cores);
            const Partition nnz = makePartition(
                PartitionKind::NnzBalanced, 1000, prefix.data(),
                cores);
            EXPECT_LE(peakOf(nnz), peakOf(rows))
                << cores << " cores, trial " << trial;
            // And never below the two hard floors: the fattest single
            // row and the ceiling of a perfect split.
            Index fat = 0;
            for (const Index l : lens)
                fat = std::max(fat, l);
            const std::uint64_t floor = std::max<std::uint64_t>(
                static_cast<std::uint64_t>(fat),
                (static_cast<std::uint64_t>(prefix.back()) + cores -
                 1) /
                    cores);
            EXPECT_GE(peakOf(nnz), floor);
        }
    }
}

TEST(Partition, NnzBalancedFallsBackWithoutPrefix)
{
    const Partition p =
        makePartition(PartitionKind::NnzBalanced, 64, nullptr, 8);
    const Partition rows =
        makePartition(PartitionKind::Rows, 64, nullptr, 8);
    EXPECT_EQ(p.bounds, rows.bounds);
}

TEST(Partition, Tiles2DKeepsContiguousSpansAndBandEdges)
{
    // 16 cores -> 4 bands x 4 subsplits: band boundaries at exact
    // quarter-row marks must appear among the bounds.
    std::vector<Index> lens(400, 3);
    const auto prefix = prefixOf(lens);
    const Partition p = makePartition(PartitionKind::Tiles2D, 400,
                                      prefix.data(), 16);
    expectCovers(p);
    for (const Index edge : {100, 200, 300}) {
        EXPECT_NE(std::find(p.bounds.begin(), p.bounds.end(), edge),
                  p.bounds.end());
    }
}

TEST(Partition, ImbalanceRatioOfPerfectSplitIsOne)
{
    std::vector<Index> lens(64, 5);
    const auto prefix = prefixOf(lens);
    const Partition p = makePartition(PartitionKind::NnzBalanced, 64,
                                      prefix.data(), 8);
    EXPECT_DOUBLE_EQ(p.imbalanceRatio(), 1.0);
    // Empty matrix: defined as balanced, not a division by zero.
    const Partition empty = makePartition(PartitionKind::NnzBalanced,
                                          0, nullptr, 8);
    EXPECT_DOUBLE_EQ(empty.imbalanceRatio(), 1.0);
}

// ---------------------------------------------------------------------
// Default-topology cycle identity: the parameterized mesh must not
// move a single cycle at the Table-5 point, under either scheduler.

namespace {

RunConfig
pinnedConfig(Mode mode, bool dense)
{
    RunConfig cfg;
    cfg.mode = mode;
    cfg.system.schedDense = dense;
    return cfg;
}

} // namespace

TEST(Topology, DefaultMeshCyclesPinnedBothSchedulers)
{
    // SpMV on M3 at 1/512 scale, stock Table-5 system. These numbers
    // were captured before the mesh was parameterized; any drift
    // means the WxH generalization changed the default model.
    constexpr Cycle kBaseCycles = 33989;
    constexpr Cycle kTmuCycles = 13120;

    auto wl = makeWorkload("SpMV");
    wl->prepare("M3", 512);
    for (const bool dense : {false, true}) {
        const RunResult base =
            wl->run(pinnedConfig(Mode::Baseline, dense));
        const RunResult tmu = wl->run(pinnedConfig(Mode::Tmu, dense));
        EXPECT_TRUE(base.verified);
        EXPECT_TRUE(tmu.verified);
        EXPECT_EQ(base.sim.cycles, kBaseCycles)
            << (dense ? "dense" : "event") << " scheduler";
        EXPECT_EQ(tmu.sim.cycles, kTmuCycles)
            << (dense ? "dense" : "event") << " scheduler";
    }
}

TEST(Topology, RefusalBoundTmuRunPinnedBothSchedulers)
{
    // SpKAdd on M2 at 1/512, 8 cores, caches shrunk with the input
    // (tmu_run --shrink-caches), TMU mode. The LLC slices' MSHRs stay
    // full: over 99% of the LLC accesses are refused re-sends of TMU
    // line requests, which the arbiter counts without re-sending when
    // the slice provably refuses again. A retry counted as refused
    // that the slice would have taken moves these numbers.
    auto wl = makeWorkload("SpKAdd");
    wl->prepare("M2", 512);
    for (const bool dense : {false, true}) {
        const char *sched = dense ? "dense" : "event";
        RunConfig cfg = pinnedConfig(Mode::Tmu, dense);
        cfg.system = shrinkCaches(cfg.system, 512);
        const RunResult r = wl->run(cfg);
        EXPECT_TRUE(r.verified) << sched;
        EXPECT_EQ(r.sim.cycles, 12264u) << sched;
        const auto stat = [&](const std::string &name) {
            const stats::SnapshotEntry *e = r.stats.find(name);
            EXPECT_NE(e, nullptr) << name;
            return e != nullptr ? e->u : 0;
        };
        EXPECT_EQ(stat("llc.accesses"), 1'127'385u) << sched;
        EXPECT_EQ(stat("llc.misses"), 7245u) << sched;
        std::uint64_t issued = 0, coalesced = 0;
        for (int c = 0; c < cfg.system.cores; ++c) {
            const std::string tmu = "tmu" + std::to_string(c) + ".";
            issued += stat(tmu + "requestsIssued");
            coalesced += stat(tmu + "coalescedLoads");
        }
        EXPECT_EQ(issued, 5940u) << sched;
        EXPECT_EQ(coalesced, 39555u) << sched;
    }
}

TEST(Topology, ExplicitDefaultMeshIsIdentity)
{
    // Spelling out the default geometry (and the folded channel-stop
    // model) must be a no-op relative to the implicit default.
    auto wl = makeWorkload("SpMV");
    wl->prepare("M6", 512);

    RunConfig implicit;
    implicit.mode = Mode::Tmu;
    const RunResult a = wl->run(implicit);

    RunConfig explicitCfg = implicit;
    explicitCfg.system.mem.meshW = 4;
    explicitCfg.system.mem.meshH = 4;
    explicitCfg.system.mem.memStopHopLatency = 0;
    const RunResult b = wl->run(explicitCfg);
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
}
