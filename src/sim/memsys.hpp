/**
 * @file
 * The shared memory hierarchy: per-core L1D/L2, a sliced shared LLC
 * reached over a parameterized WxH mesh, and HBM2e channels. The
 * default configuration is the paper's Table 5 machine (8 cores, 8
 * slices, 4x4 mesh); MemConfig::meshW/meshH, llcSlices and
 * memChannels scale the floorplan past that point.
 *
 * Two entry points mirror the paper's integration (Sec. 5.6): cores
 * access through their private hierarchy; TMUs read directly from the
 * LLC (more MSHRs -> more MLP) and write their outQ into the host
 * core's private L2.
 */

#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/prefetch.hpp"
#include "sim/tlb.hpp"

namespace tmu::sim {

class FaultInjector;

/** Outcome of a memory-system access. */
struct MemAccess
{
    bool accepted = false; //!< false: structural hazard, retry
    Cycle complete = 0;    //!< data-available cycle
    int levelHit = 0;      //!< 1=L1, 2=L2, 3=LLC, 4=DRAM (first hit)
};

/**
 * An LLC slice's refusal of a TMU line request (its MSHRs were full),
 * kept by the requester so that a retry can be checked cheaply with
 * MemorySystem::tmuRefusalStands.
 */
struct LlcRefusal
{
    int slice = -1;          //!< refusing slice; -1: none held
    Cycle delay = 0;         //!< cycles from request to the slice
    std::uint64_t epoch = 0; //!< the slice's Cache::epoch() after it
};

/** DRAM traffic counters (roofline denominators). */
struct DramStats
{
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t accesses = 0;
    /** Channel-busy wait before each transfer started (queueing). */
    double queueCycles = 0.0;
    /** Pure transfer/activation time of the transfers themselves. */
    double serviceCycles = 0.0;
};

/** The full shared memory system of one simulated multicore. */
class MemorySystem
{
  public:
    explicit MemorySystem(const SystemConfig &cfg);

    /** Demand access from core @p coreId (entered at its L1D). */
    MemAccess coreAccess(int coreId, Addr addr, bool write, Cycle now);

    /**
     * TMU fiber-traversal read: enters at the LLC slice. When the
     * slice refuses it and @p refusal is given, the refusal is written
     * there (left untouched when the TLB is modelled: translation
     * touches the TLB and moves the request cycle on every attempt).
     */
    MemAccess tmuAccess(int coreId, Addr addr, Cycle now,
                        LlcRefusal *refusal = nullptr);

    /**
     * True when the slice is certain to refuse again, at @p now, the
     * request @p refusal (which holds a slice) names
     * (Cache::refusalStands). The retry is then counted with
     * tmuCountRefusal instead of tmuAccess.
     */
    bool
    tmuRefusalStands(const LlcRefusal &refusal, Cycle now) const
    {
        return slices_[static_cast<size_t>(refusal.slice)].refusalStands(
            refusal.epoch, now + refusal.delay);
    }

    /** Count a retry tmuRefusalStands holds for, exactly as tmuAccess
     *  would count it. */
    void
    tmuCountRefusal(const LlcRefusal &refusal)
    {
        slices_[static_cast<size_t>(refusal.slice)].countRefusal();
    }

    /** TMU outQ line install into the host core's private L2. */
    void outqInstall(int coreId, Addr line, Cycle now);

    /**
     * Attach a fault injector (borrowed; nullptr detaches). Sites:
     * extra latency on accepted accesses (mem-lat), dropped prefetch
     * candidates (drop-pf). Timing-only — results stay correct.
     */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /** Register an index array for the IMP comparator's value reads. */
    void registerIndexRegion(Addr base, std::uint64_t bytes);

    /** Feed the IMP an observed (index element, consumer) pair. */
    void observeIndirect(int coreId, Addr prodAddr, Addr consAddr,
                         Cycle now);

    const DramStats &dramStats() const { return dram_; }
    const Cache &l1(int coreId) const
    {
        return perCore_[static_cast<size_t>(coreId)].l1;
    }
    const Cache &l2(int coreId) const
    {
        return perCore_[static_cast<size_t>(coreId)].l2;
    }
    const Cache &llcSlice(int s) const
    {
        return slices_[static_cast<size_t>(s)];
    }
    const Tlb &tlb(int coreId) const
    {
        return perCore_[static_cast<size_t>(coreId)].tlb;
    }
    const SystemConfig &config() const { return cfg_; }

    /** Achieved DRAM bandwidth over [0, @p cycles] in GB/s. */
    double achievedGBs(Cycle cycles) const;

    /**
     * Register every memory-side counter: per-core L1/L2 (and TLB when
     * modelled), the LLC aggregates, and DRAM — in the historical
     * dumpStats order. @p extended adds the machine-readable extras
     * (hits/misses per level, prefetcher candidates, per-slice LLC
     * counts, DRAM row hits).
     */
    void registerStats(stats::StatRegistry &reg, bool extended) const;

  private:
    struct PerCore
    {
        Cache l1;
        Cache l2;
        StridePrefetcher stride{2};
        BestOffsetPrefetcher bo;
        ImpPrefetcher imp;
        Tlb tlb;
    };

    struct Channel
    {
        double nextFree = 0.0;
        Addr lastRow = ~Addr{0};
    };

    /**
     * L2 access path (L1 miss handler). kMissRejected on hazard.
     * @p levelOut (optional) reports the level that serviced the
     * request: 2=L2, 3=LLC, 4=DRAM.
     */
    Cycle l2Path(int coreId, Addr line, Cycle t, bool isPrefetch,
                 int *levelOut = nullptr);
    /** LLC access path (L2 miss / TMU entry). @p levelOut: 3 or 4. */
    Cycle llcPath(int coreId, Addr line, Cycle t,
                  int *levelOut = nullptr);
    /** DRAM channel read. Always accepted; returns completion. */
    Cycle dramAccess(Addr line, Cycle t);
    /** DRAM channel writeback (occupies bandwidth, no completion). */
    void dramWrite(Addr line, Cycle t);

    /** Mesh round-trip latency between a core tile and an LLC slice. */
    Cycle nocLatency(int coreId, int slice) const;

    /**
     * Mesh round-trip latency between an LLC slice and the HBM channel
     * stop serving @p line. Zero under the default Table 5
     * calibration (memStopHopLatency == 0), where the slice-to-memory
     * distance is folded into dramLatency.
     */
    Cycle memStopLatency(int slice, Addr line) const;

    /** Channel index serving @p line (address-hash interleaving). */
    int channelOf(Addr line) const;

    int sliceOf(Addr line) const;

    /** Run queued prefetch candidates through the hierarchy. */
    void flushPrefetches(int coreId, Cycle now);

    /** Handle a dirty line evicted from a private L2 (towards LLC). */
    void writebackToLlc(int coreId, Addr line, Cycle now);

    /** Fault hook: extra latency on an accepted access, if injecting. */
    Cycle latencyFault();

    SystemConfig cfg_;
    FaultInjector *faults_ = nullptr; //!< borrowed, may be null
    std::vector<PerCore> perCore_;
    std::vector<Cache> slices_;
    std::vector<Channel> channels_;
    DramStats dram_;
    PrefetchList pendingL1_; //!< stride/IMP candidates (into L1)
    PrefetchList pendingL2_; //!< best-offset candidates (into L2)
};

} // namespace tmu::sim
