#include "memsys.hpp"

#include <cmath>
#include <cstdlib>

#include "common/log.hpp"
#include "sim/fault.hpp"

namespace tmu::sim {

Cycle
MemorySystem::latencyFault()
{
    if (faults_ == nullptr ||
        !faults_->shouldInject(FaultKind::MemLatencySpike))
        return 0;
    return faults_->extraCycles(FaultKind::MemLatencySpike);
}

MemorySystem::MemorySystem(const SystemConfig &cfg) : cfg_(cfg)
{
    perCore_.reserve(static_cast<size_t>(cfg.cores));
    for (int c = 0; c < cfg.cores; ++c) {
        PerCore pc{Cache(detail::format("l1.%d", c), cfg.l1),
                   Cache(detail::format("l2.%d", c), cfg.l2),
                   StridePrefetcher(2), BestOffsetPrefetcher(),
                   ImpPrefetcher(), Tlb(cfg.tlb)};
        perCore_.push_back(std::move(pc));
    }
    for (int s = 0; s < cfg.mem.llcSlices; ++s)
        slices_.emplace_back(detail::format("llc.%d", s), cfg.llcSlice);
    channels_.resize(static_cast<size_t>(cfg.mem.memChannels));
}

int
MemorySystem::sliceOf(Addr line) const
{
    // Hash the line address across slices (CHI-style SAM).
    const Addr l = line / kLineBytes;
    return static_cast<int>((l ^ (l >> 7)) %
                            static_cast<Addr>(cfg_.mem.llcSlices));
}

Cycle
MemorySystem::nocLatency(int coreId, int slice) const
{
    // Cores fill tiles row-major from row 0; LLC slices fill tiles
    // row-major from row floor(meshH/2). On the default 4x4 mesh that
    // is the paper floorplan: cores on rows 0-1, slices on rows 2-3.
    const int w = cfg_.mem.meshW;
    const int cx = coreId % w, cy = coreId / w;
    const int sx = slice % w, sy = cfg_.mem.meshH / 2 + slice / w;
    const int hops = std::abs(cx - sx) + std::abs(cy - sy);
    return 2 * static_cast<Cycle>(hops) * cfg_.mem.nocHopLatency;
}

int
MemorySystem::channelOf(Addr line) const
{
    const Addr l = line / kLineBytes;
    return static_cast<int>((l ^ (l >> 9)) %
                            static_cast<Addr>(channels_.size()));
}

Cycle
MemorySystem::memStopLatency(int slice, Addr line) const
{
    if (cfg_.mem.memStopHopLatency == 0)
        return 0; // Table 5 calibration: folded into dramLatency
    // Channel stops spread evenly along the bottom mesh row.
    const int w = cfg_.mem.meshW;
    const int ch = channelOf(line);
    const int chx = static_cast<int>(
        (static_cast<long>(ch) * w) / cfg_.mem.memChannels);
    const int chy = cfg_.mem.meshH - 1;
    const int sx = slice % w, sy = cfg_.mem.meshH / 2 + slice / w;
    const int hops = std::abs(sx - chx) + std::abs(sy - chy);
    return 2 * static_cast<Cycle>(hops) * cfg_.mem.memStopHopLatency;
}

Cycle
MemorySystem::dramAccess(Addr line, Cycle t)
{
    auto &ch = channels_[static_cast<size_t>(channelOf(line))];

    const double start =
        std::max(static_cast<double>(t), ch.nextFree);
    ch.nextFree = start + cfg_.mem.lineServiceCycles();

    const Addr row = line >> 13; // 8 KiB row buffer
    const bool rowHit = row == ch.lastRow;
    ch.lastRow = row;

    dram_.readBytes += kLineBytes;
    ++dram_.accesses;
    dram_.rowHits += rowHit;

    const Cycle lat =
        rowHit ? cfg_.mem.dramRowHitLatency : cfg_.mem.dramLatency;
    dram_.queueCycles += start - static_cast<double>(t);
    dram_.serviceCycles += static_cast<double>(lat);
    return static_cast<Cycle>(start) + lat;
}

void
MemorySystem::dramWrite(Addr line, Cycle t)
{
    // Writebacks are fire-and-forget for the requester but occupy the
    // channel like any other transfer (bandwidth is bidirectionally
    // shared on HBM pseudo-channels).
    auto &ch = channels_[static_cast<size_t>(channelOf(line))];
    const double start = std::max(static_cast<double>(t), ch.nextFree);
    ch.nextFree = start + cfg_.mem.lineServiceCycles();
    dram_.queueCycles += start - static_cast<double>(t);
    dram_.serviceCycles += cfg_.mem.lineServiceCycles();
    dram_.writeBytes += kLineBytes;
    ++dram_.accesses;
}

Cycle
MemorySystem::llcPath(int coreId, Addr line, Cycle t, int *levelOut)
{
    const int s = sliceOf(line);
    Cache &slice = slices_[static_cast<size_t>(s)];
    const Cycle noc = nocLatency(coreId, s);

    bool wentDram = false;
    Addr evicted = 0;
    Addr *evictedPtr = &evicted;
    const CacheAccess res = slice.access(
        line, t + noc / 2, false,
        [&](Cycle t2) {
            wentDram = true;
            // Slice -> HBM channel stop traversal; 0 at the Table 5
            // calibration point (memStopHopLatency == 0).
            const Cycle stop = memStopLatency(s, line);
            return dramAccess(line, t2 + stop / 2) + stop / 2 +
                   (stop & 1);
        },
        evictedPtr);
    if (!res.accepted)
        return kMissRejected;
    if (levelOut != nullptr)
        *levelOut = wentDram ? 4 : 3;
    if (evicted != 0)
        dramWrite(evicted, t); // dirty LLC victim -> DRAM
    return res.complete + noc / 2 + (noc & 1);
}

Cycle
MemorySystem::l2Path(int coreId, Addr line, Cycle t, bool isPrefetch,
                     int *levelOut)
{
    PerCore &pc = perCore_[static_cast<size_t>(coreId)];

    if (!isPrefetch && cfg_.l2BestOffsetPrefetcher)
        pc.bo.observe(line, pendingL2_);

    if (levelOut != nullptr)
        *levelOut = 2; // refined below on a real L2 miss
    Addr evicted = 0;
    const CacheAccess res = pc.l2.access(
        line, t, false,
        [&](Cycle t2) { return llcPath(coreId, line, t2, levelOut); },
        &evicted);
    if (!res.accepted)
        return kMissRejected;
    if (evicted != 0)
        writebackToLlc(coreId, evicted, t);
    return res.complete;
}

void
MemorySystem::writebackToLlc(int coreId, Addr line, Cycle now)
{
    const int s = sliceOf(line);
    Addr evicted = 0;
    slices_[static_cast<size_t>(s)].installDirect(line, true, &evicted);
    if (evicted != 0)
        dramWrite(evicted, now);
    (void)coreId;
}

MemAccess
MemorySystem::coreAccess(int coreId, Addr addr, bool write, Cycle now)
{
    PerCore &pc = perCore_[static_cast<size_t>(coreId)];
    const Addr line = lineAddr(addr);

    // Address translation precedes the cache access (Sec. 5.6).
    if (cfg_.modelTlb)
        now += pc.tlb.access(addr).extraLatency;

    int levelHit = 1;
    Addr evicted = 0;
    const CacheAccess res = pc.l1.access(
        line, now, write,
        [&](Cycle t) {
            // The miss path reports the level that serviced it.
            return l2Path(coreId, line, t, false, &levelHit);
        },
        &evicted);

    if (!res.accepted)
        return {false, 0, 0};

    if (evicted != 0) {
        // Dirty L1 victim: write through to L2 (and onwards if L2
        // evicts in turn).
        Addr l2Evicted = 0;
        pc.l2.installDirect(evicted, true, &l2Evicted);
        if (l2Evicted != 0)
            writebackToLlc(coreId, l2Evicted, now);
    }

    // Demand-side prefetcher training (full address stream).
    if (cfg_.l1StridePrefetcher)
        pc.stride.observe(addr, pendingL1_);
    flushPrefetches(coreId, now);

    // Classify the hit level from the latency when it missed L1.
    if (res.hit)
        levelHit = 1;
    return {true, res.complete + latencyFault(), levelHit};
}

MemAccess
MemorySystem::tmuAccess(int coreId, Addr addr, Cycle now,
                        LlcRefusal *refusal)
{
    const Addr line = lineAddr(addr);
    // The TMU shares the host core's MMU via the L2 TLB (Sec. 5.6).
    if (cfg_.modelTlb) {
        now += perCore_[static_cast<size_t>(coreId)]
                   .tlb.accessL2(addr)
                   .extraLatency;
    }
    int levelHit = 3;
    const Cycle c = llcPath(coreId, line, now, &levelHit);
    if (c == kMissRejected) {
        // DRAM never refuses, so the slice's MSHRs were full.
        if (refusal != nullptr && !cfg_.modelTlb) {
            // The request reaches the slice after half the mesh round
            // trip, as in llcPath.
            const int s = sliceOf(line);
            *refusal = {s, nocLatency(coreId, s) / 2,
                        slices_[static_cast<size_t>(s)].epoch()};
        }
        return {false, 0, 0};
    }
    return {true, c + latencyFault(), levelHit};
}

void
MemorySystem::outqInstall(int coreId, Addr line, Cycle now)
{
    PerCore &pc = perCore_[static_cast<size_t>(coreId)];
    Addr evicted = 0;
    pc.l2.installDirect(lineAddr(line), true, &evicted);
    if (evicted != 0)
        writebackToLlc(coreId, evicted, now);
}

void
MemorySystem::registerIndexRegion(Addr base, std::uint64_t bytes)
{
    for (auto &pc : perCore_)
        pc.imp.addIndexRegion(base, bytes);
}

void
MemorySystem::observeIndirect(int coreId, Addr prodAddr, Addr consAddr,
                              Cycle now)
{
    if (!cfg_.impPrefetcher)
        return;
    PerCore &pc = perCore_[static_cast<size_t>(coreId)];
    pc.imp.observe(prodAddr, consAddr, pendingL1_);
    flushPrefetches(coreId, now);
}

void
MemorySystem::flushPrefetches(int coreId, Cycle now)
{
    PerCore &pc = perCore_[static_cast<size_t>(coreId)];

    // L1-targeted candidates (stride + IMP): drop on any hazard.
    for (const Addr line : pendingL1_) {
        if (faults_ != nullptr &&
            faults_->shouldInject(FaultKind::DropPrefetch))
            continue;
        Addr evicted = 0;
        pc.l1.access(
            line, now, false,
            [&](Cycle t) { return l2Path(coreId, line, t, true); },
            &evicted);
        if (evicted != 0) {
            Addr l2Evicted = 0;
            pc.l2.installDirect(evicted, true, &l2Evicted);
            if (l2Evicted != 0)
                writebackToLlc(coreId, l2Evicted, now);
        }
    }
    pendingL1_.clear();

    // L2-targeted candidates (best-offset).
    for (const Addr line : pendingL2_) {
        if (faults_ != nullptr &&
            faults_->shouldInject(FaultKind::DropPrefetch))
            continue;
        Addr evicted = 0;
        pc.l2.access(
            line, now, false,
            [&](Cycle t) { return llcPath(coreId, line, t); }, &evicted);
        if (evicted != 0)
            writebackToLlc(coreId, evicted, now);
    }
    pendingL2_.clear();
}

void
MemorySystem::registerStats(stats::StatRegistry &reg, bool extended) const
{
    for (int c = 0; c < cfg_.cores; ++c) {
        const PerCore &pc = perCore_[static_cast<std::size_t>(c)];
        const std::string p = "core" + std::to_string(c) + ".";
        pc.l1.registerStats(reg, p + "l1.", "L1D", extended);
        pc.l2.registerStats(reg, p + "l2.", "L2", extended);
        if (cfg_.modelTlb)
            pc.tlb.registerStats(reg, p + "tlb.", extended);
        if (extended) {
            reg.scalarU64(p + "prefetch.strideCandidates",
                          "stride prefetch candidates",
                          [&pc] { return pc.stride.candidates(); });
            reg.scalarU64(p + "prefetch.boCandidates",
                          "best-offset prefetch candidates",
                          [&pc] { return pc.bo.candidates(); });
            reg.scalarU64(p + "prefetch.impCandidates",
                          "IMP indirect prefetch candidates",
                          [&pc] { return pc.imp.candidates(); });
        }
    }

    reg.scalarU64("llc.accesses", "LLC accesses (all slices)", [this] {
        std::uint64_t n = 0;
        for (const Cache &s : slices_)
            n += s.accesses();
        return n;
    });
    reg.scalarU64("llc.misses", "LLC misses (all slices)", [this] {
        std::uint64_t n = 0;
        for (const Cache &s : slices_)
            n += s.misses();
        return n;
    });
    reg.formula("llc.hitRate", "LLC hit rate", [this] {
        std::uint64_t acc = 0, miss = 0;
        for (const Cache &s : slices_) {
            acc += s.accesses();
            miss += s.misses();
        }
        return acc ? 1.0 - static_cast<double>(miss) /
                               static_cast<double>(acc)
                   : 0.0;
    });
    if (extended) {
        for (std::size_t s = 0; s < slices_.size(); ++s) {
            slices_[s].registerStats(
                reg, "llc.slice" + std::to_string(s) + ".", "LLC slice",
                false);
        }
    }

    reg.scalar("dram.readBytes", "bytes read from DRAM",
               &dram_.readBytes);
    reg.scalar("dram.writeBytes", "bytes written to DRAM",
               &dram_.writeBytes);
    reg.scalar("dram.accesses", "line transfers", &dram_.accesses);
    reg.formula("dram.rowHitRate", "row-buffer hit rate", [this] {
        return dram_.accesses ? static_cast<double>(dram_.rowHits) /
                                    static_cast<double>(dram_.accesses)
                              : 0.0;
    });
    if (extended) {
        reg.scalar("dram.rowHits", "row-buffer hits", &dram_.rowHits);
        reg.scalar("dram.queueCycles",
                   "channel-busy wait before transfers started",
                   &dram_.queueCycles);
        reg.scalar("dram.serviceCycles",
                   "transfer/activation time of DRAM accesses",
                   &dram_.serviceCycles);
    }
}

double
MemorySystem::achievedGBs(Cycle cycles) const
{
    if (cycles == 0)
        return 0.0;
    const double bytes = static_cast<double>(dram_.readBytes) +
                         static_cast<double>(dram_.writeBytes);
    const double seconds =
        static_cast<double>(cycles) / (cfg_.mem.coreGHz * 1e9);
    return bytes / seconds / 1e9;
}

} // namespace tmu::sim
