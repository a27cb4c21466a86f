/**
 * @file
 * Architectural parameters of the simulated multicore (paper Table 5),
 * plus the A64FX-like and Graviton3-like presets used by the Fig. 3
 * motivation study.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sim/tlb.hpp"

namespace tmu::sim {

/** One cache level's parameters. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 64 * 1024;
    int ways = 4;
    Cycle latency = 2; //!< data access latency on hit
    int mshrs = 32;    //!< outstanding-miss capacity
};

/** Out-of-order core parameters. */
struct CoreConfig
{
    int robEntries = 224;
    int loadQueue = 96;
    int storeQueue = 96;
    int dispatchWidth = 6;  //!< µops renamed/dispatched per cycle
    int commitWidth = 6;    //!< µops retired per cycle
    int issueWidth = 8;     //!< µops issued to FUs per cycle
    int loadIssuePerCycle = 2;
    int storeIssuePerCycle = 2;
    int fpIssuePerCycle = 2;
    Cycle fpLatency = 4;
    Cycle branchResolveMin = 8;   //!< min front-to-resolve depth
    Cycle mispredictPenalty = 12; //!< redirect + refill after resolve
    int ghistBits = 12;           //!< gshare global-history length
};

/** Memory-side parameters: NoC + DRAM channels. */
struct MemConfig
{
    int llcSlices = 8;
    int memChannels = 4;
    double channelGBs = 37.5; //!< per-channel bandwidth
    double coreGHz = 2.4;
    Cycle dramLatency = 90;   //!< closed-page access latency
    Cycle dramRowHitLatency = 60;
    Cycle nocHopLatency = 2;  //!< per-hop (1 cycle router + 1 link)
    /**
     * Mesh geometry, meshW columns x meshH rows. Cores fill tiles
     * row-major from row 0; LLC slices fill tiles row-major from row
     * floor(meshH/2); HBM channel stops sit on the bottom row. The
     * default 4x4 reproduces the paper's Table 5 floorplan (cores on
     * rows 0-1, slices on rows 2-3); any WxH that passes
     * SystemConfig::validate() is simulated the same way.
     */
    int meshW = 4;
    int meshH = 4;
    /**
     * Per-hop cost of the LLC-slice -> HBM-channel-stop traversal.
     * 0 (the Table 5 calibration) folds that distance into
     * dramLatency, which keeps the default topology cycle-identical
     * to the pre-parameterized model; set it > 0 to expose channel
     * placement when sweeping large meshes.
     */
    Cycle memStopHopLatency = 0;

    /** DRAM line service time in core cycles (bandwidth bound). */
    double
    lineServiceCycles() const
    {
        const double bytesPerCycle = channelGBs / coreGHz;
        return static_cast<double>(kLineBytes) / bytesPerCycle;
    }

    /** Aggregate peak DRAM bandwidth in GB/s. */
    double peakGBs() const { return channelGBs * memChannels; }
};

/** Full system description. */
struct SystemConfig
{
    std::string name = "neoverse-n1-like";
    int cores = 8;
    int simdBits = 512; //!< SVE vector width (Fig. 14 knob)
    CoreConfig core;
    CacheConfig l1{64 * 1024, 4, 2, 32};
    CacheConfig l2{512 * 1024, 8, 8, 64};
    CacheConfig llcSlice{1024 * 1024, 16, 12, 16}; //!< per slice (x8)
    MemConfig mem;
    bool l1StridePrefetcher = true;
    bool l2BestOffsetPrefetcher = true;
    bool impPrefetcher = false; //!< Fig. 15 comparator
    /**
     * Model address translation (Sec. 5.6): cores translate through
     * their two-level TLB, the TMU through the host core's L2 TLB.
     * Off by default in the scaled-down benches (see DESIGN.md).
     */
    bool modelTlb = false;
    TlbConfig tlb;
    /**
     * Reference mode: the scheduler ignores wake hints and ticks every
     * component every cycle — the pre-event-kernel per-cycle loop,
     * through the same code path. Results must be identical to the
     * event-driven default (pinned by tests); also settable via the
     * TMU_SCHED_DENSE environment variable for A/B validation.
     */
    bool schedDense = false;
    /**
     * Forward-progress watchdog window: a run with no committed work
     * anywhere for this many cycles ends with a Deadlock/Livelock
     * termination and an occupancy dump instead of spinning to the
     * cycle cap. 0 disables the watchdog.
     */
    Cycle watchdogCycles = 1'000'000;
    /**
     * Per-run budgets (0 disables each). Enforced
     * cooperatively by System::run at its poll boundaries, producing
     * structured DeadlineExceeded / CycleBudgetExceeded /
     * MemBudgetExceeded terminations instead of hangs or OOM kills.
     * A watchdog trip observed at the same boundary wins: a deadlocked
     * run past its deadline is still reported as a deadlock.
     *
     * cycleBudget is deterministic (simulated time); deadlineMs and
     * memBudgetBytes sample the host wall clock / resident set, so
     * their trip points are host-dependent by design and excluded from
     * the byte-identical sweep determinism contract.
     */
    std::uint64_t deadlineMs = 0;   //!< host wall-clock budget per run
    Cycle cycleBudget = 0;          //!< simulated-cycle budget per run
    std::uint64_t memBudgetBytes = 0; //!< host resident-set budget

    /** Peak FP throughput in GFLOP/s (FMA on full-width vectors). */
    double
    peakGflops() const
    {
        const double lanesPerOp = simdBits / 64.0;
        return mem.coreGHz * cores * lanesPerOp * 2.0 *
               core.fpIssuePerCycle;
    }

    /** Paper Table 5 baseline. */
    static SystemConfig neoverseN1();
    /** Fig. 3: HPC-class part - modest OoO, high per-core bandwidth. */
    static SystemConfig a64fxLike();
    /** Fig. 3: datacenter part - aggressive OoO, larger caches. */
    static SystemConfig graviton3Like();

    /** Known preset names accepted by preset(). */
    static std::vector<std::string> presetNames();

    /**
     * Preset lookup by name ("neoverse-n1", "a64fx", "graviton3");
     * UnknownName error on anything else, listing the known presets.
     */
    static Expected<SystemConfig> preset(const std::string &name);

    /**
     * Consistency check of a (possibly user-mutated) configuration:
     * positive core/queue/cache/channel parameters, SVE width a
     * supported power of two, the mesh large enough for the cores and
     * LLC slices. ConfigError on the first violated constraint.
     */
    Expected<void> validate() const;

    /** Render the Table-5 style parameter block. */
    std::string describe() const;
};

/**
 * Parse a "WxH" mesh geometry spec ("4x4", "8x2", ...). Errors carry
 * a caret diagnostic pointing at the offending column, in the same
 * style as the einsum frontend:
 *
 *   --mesh:1:3: expected 'x' between mesh width and height
 *     8y2
 *       ^
 */
Expected<std::pair<int, int>> parseMeshSpec(const std::string &spec);

/**
 * Shrink the cache hierarchy by the input scale divisor (floors keep
 * every cache structurally valid). The evaluation scales inputs down
 * (the benches' TMU_SCALE_*, tmu_run's --scale); capacity-to-working-set
 * ratios — which the paper's effects key on (gathers missing caches,
 * workspaces thrashing) — are preserved by shrinking the machine with
 * the data. Latencies, widths and MSHR counts stay at their Table 5
 * values.
 */
SystemConfig shrinkCaches(SystemConfig cfg, Index div);

} // namespace tmu::sim
