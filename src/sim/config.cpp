#include "config.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace tmu::sim {

SystemConfig
SystemConfig::neoverseN1()
{
    return SystemConfig{}; // defaults are the Table 5 system
}

SystemConfig
SystemConfig::a64fxLike()
{
    SystemConfig cfg;
    cfg.name = "a64fx-like";
    // Modest out-of-order resources, weaker branch handling...
    cfg.core.robEntries = 128;
    cfg.core.loadQueue = 40;
    cfg.core.storeQueue = 24;
    cfg.core.dispatchWidth = 4;
    cfg.core.commitWidth = 4;
    cfg.core.issueWidth = 4;
    cfg.core.mispredictPenalty = 18;
    cfg.core.ghistBits = 8;
    // ...small L1, a big shared L2 as the only other level (the A64FX
    // has no L3), and lots of per-core HBM bandwidth.
    cfg.l1 = CacheConfig{64 * 1024, 4, 3, 16};
    cfg.l2 = CacheConfig{256 * 1024, 8, 10, 24};
    cfg.llcSlice = CacheConfig{512 * 1024, 16, 24, 16};
    cfg.mem.memChannels = 8;
    cfg.mem.channelGBs = 32.0;    // ~21 GB/s per core aggregate
    cfg.mem.dramLatency = 130;    // HBM trades latency for bandwidth
    cfg.mem.dramRowHitLatency = 90;
    return cfg;
}

SystemConfig
SystemConfig::graviton3Like()
{
    SystemConfig cfg;
    cfg.name = "graviton3-like";
    // Aggressive core with large caches, less per-core bandwidth.
    cfg.core.robEntries = 256;
    cfg.core.loadQueue = 96;
    cfg.core.storeQueue = 64;
    cfg.core.dispatchWidth = 8;
    cfg.core.commitWidth = 8;
    cfg.core.issueWidth = 8;
    cfg.core.mispredictPenalty = 11;
    cfg.core.ghistBits = 14;
    cfg.l1 = CacheConfig{64 * 1024, 4, 2, 32};
    cfg.l2 = CacheConfig{1024 * 1024, 8, 10, 64};
    cfg.llcSlice = CacheConfig{4 * 1024 * 1024, 16, 18, 16};
    cfg.mem.memChannels = 4;
    cfg.mem.channelGBs = 19.0; // DDR5-class: ample for a few cores,
                               // ~9.5 GB/s per core with all 8 active
    return cfg;
}

SystemConfig
shrinkCaches(SystemConfig cfg, Index div)
{
    auto shrink = [&](std::uint64_t bytes, std::uint64_t floor) {
        return std::max<std::uint64_t>(
            floor, bytes / static_cast<std::uint64_t>(div));
    };
    cfg.l1.sizeBytes = shrink(cfg.l1.sizeBytes, 2048);
    cfg.l2.sizeBytes = shrink(cfg.l2.sizeBytes, 2048);
    cfg.llcSlice.sizeBytes = shrink(cfg.llcSlice.sizeBytes, 4096);
    return cfg;
}

std::vector<std::string>
SystemConfig::presetNames()
{
    return {"neoverse-n1", "a64fx", "graviton3"};
}

Expected<SystemConfig>
SystemConfig::preset(const std::string &name)
{
    if (name == "neoverse-n1" || name == "neoverse-n1-like")
        return neoverseN1();
    if (name == "a64fx" || name == "a64fx-like")
        return a64fxLike();
    if (name == "graviton3" || name == "graviton3-like")
        return graviton3Like();
    std::string known;
    for (const std::string &p : presetNames()) {
        if (!known.empty())
            known += ", ";
        known += p;
    }
    return TMU_ERR(Errc::UnknownName,
                   "unknown system preset '%s' (known: %s)",
                   name.c_str(), known.c_str());
}

Expected<void>
SystemConfig::validate() const
{
    if (cores < 1)
        return TMU_ERR(Errc::ConfigError, "cores must be >= 1, got %d",
                       cores);
    if (simdBits != 128 && simdBits != 256 && simdBits != 512) {
        return TMU_ERR(Errc::ConfigError,
                       "simdBits must be 128, 256 or 512, got %d",
                       simdBits);
    }
    if (core.robEntries < 1 || core.loadQueue < 1 ||
        core.storeQueue < 1) {
        return TMU_ERR(Errc::ConfigError,
                       "ROB/LSQ sizes must be >= 1 (rob %d, lq %d, "
                       "sq %d)",
                       core.robEntries, core.loadQueue,
                       core.storeQueue);
    }
    if (core.dispatchWidth < 1 || core.commitWidth < 1 ||
        core.issueWidth < 1) {
        return TMU_ERR(Errc::ConfigError,
                       "pipeline widths must be >= 1 (dispatch %d, "
                       "commit %d, issue %d)",
                       core.dispatchWidth, core.commitWidth,
                       core.issueWidth);
    }
    for (const CacheConfig *c : {&l1, &l2, &llcSlice}) {
        if (c->sizeBytes < kLineBytes || c->ways < 1 || c->mshrs < 1) {
            return TMU_ERR(Errc::ConfigError,
                           "cache level needs size >= %d B, ways >= 1, "
                           "mshrs >= 1 (got %llu B, %d ways, %d mshrs)",
                           static_cast<int>(kLineBytes),
                           static_cast<unsigned long long>(
                               c->sizeBytes),
                           c->ways, c->mshrs);
        }
    }
    if (mem.llcSlices < 1 || mem.memChannels < 1)
        return TMU_ERR(Errc::ConfigError,
                       "need >= 1 LLC slice and memory channel (got "
                       "%d, %d)",
                       mem.llcSlices, mem.memChannels);
    if (mem.channelGBs <= 0.0 || mem.coreGHz <= 0.0)
        return TMU_ERR(Errc::ConfigError,
                       "channel bandwidth and clock must be positive "
                       "(got %.2f GB/s, %.2f GHz)",
                       mem.channelGBs, mem.coreGHz);
    if (mem.meshW < 1 || mem.meshH < 1) {
        return TMU_ERR(Errc::ConfigError,
                       "mesh geometry must be >= 1x1, got %dx%d",
                       mem.meshW, mem.meshH);
    }
    if (cores > mem.meshW * mem.meshH) {
        return TMU_ERR(Errc::ConfigError,
                       "%dx%d mesh has %d tiles, cannot host %d cores",
                       mem.meshW, mem.meshH, mem.meshW * mem.meshH,
                       cores);
    }
    // LLC slices fill rows floor(meshH/2)..meshH-1, i.e. ceil(meshH/2)
    // rows of meshW tiles each (see MemorySystem::nocLatency).
    const int sliceRows = mem.meshH - mem.meshH / 2;
    if (mem.llcSlices > mem.meshW * sliceRows) {
        return TMU_ERR(Errc::ConfigError,
                       "%dx%d mesh has %d slice tiles (rows %d-%d), "
                       "cannot host %d LLC slices",
                       mem.meshW, mem.meshH, mem.meshW * sliceRows,
                       mem.meshH / 2, mem.meshH - 1, mem.llcSlices);
    }
    if (mem.memChannels > mem.meshW * mem.meshH) {
        return TMU_ERR(Errc::ConfigError,
                       "%dx%d mesh cannot host %d HBM channel stops",
                       mem.meshW, mem.meshH, mem.memChannels);
    }
    return {};
}

Expected<std::pair<int, int>>
parseMeshSpec(const std::string &spec)
{
    const auto fail = [&spec](int col, const char *msg) {
        const std::string caret(
            static_cast<size_t>(col > 0 ? col - 1 : 0), ' ');
        return TMU_ERR(Errc::ParseError, "--mesh:1:%d: %s\n  %s\n  %s^",
                       col, msg, spec.c_str(), caret.c_str());
    };
    size_t i = 0;
    const auto digits = [&](long &out) {
        const size_t start = i;
        long v = 0;
        while (i < spec.size() && spec[i] >= '0' && spec[i] <= '9') {
            v = std::min<long>(v * 10 + (spec[i] - '0'), 1 << 20);
            ++i;
        }
        out = v;
        return i > start;
    };
    long w = 0, h = 0;
    if (!digits(w))
        return fail(static_cast<int>(i) + 1,
                    "expected mesh width (a positive integer)");
    if (i >= spec.size() || (spec[i] != 'x' && spec[i] != 'X'))
        return fail(static_cast<int>(i) + 1,
                    "expected 'x' between mesh width and height");
    ++i;
    if (!digits(h))
        return fail(static_cast<int>(i) + 1,
                    "expected mesh height (a positive integer)");
    if (i != spec.size())
        return fail(static_cast<int>(i) + 1,
                    "trailing characters after WxH mesh spec");
    if (w < 1 || w > 1024 || h < 1 || h > 1024)
        return fail(1, "mesh dimensions must be in [1, 1024]");
    return std::pair<int, int>{static_cast<int>(w),
                               static_cast<int>(h)};
}

std::string
SystemConfig::describe() const
{
    std::string out = detail::format(
        "%s: %d cores, SVE %d b, ROB %d, LSQ %d/%d, "
        "L1 %lluKiB/%d-way/%d MSHR, L2 %lluKiB/%d-way/%d MSHR, "
        "LLC %dx%lluKiB/%d-way on a %dx%d mesh, %d HBM ch x %.1f GB/s",
        name.c_str(), cores, simdBits, core.robEntries, core.loadQueue,
        core.storeQueue,
        static_cast<unsigned long long>(l1.sizeBytes / 1024), l1.ways,
        l1.mshrs,
        static_cast<unsigned long long>(l2.sizeBytes / 1024), l2.ways,
        l2.mshrs, mem.llcSlices,
        static_cast<unsigned long long>(llcSlice.sizeBytes / 1024),
        llcSlice.ways, mem.meshW, mem.meshH, mem.memChannels,
        mem.channelGBs);
    // Budgets are off by default; the banner only grows when a run
    // sets one, keeping historical output unchanged.
    if (deadlineMs > 0 || cycleBudget > 0 || memBudgetBytes > 0) {
        out += "\nbudgets:";
        if (deadlineMs > 0) {
            out += detail::format(
                " deadline %llu ms,",
                static_cast<unsigned long long>(deadlineMs));
        }
        if (cycleBudget > 0) {
            out += detail::format(
                " %llu simulated cycles,",
                static_cast<unsigned long long>(cycleBudget));
        }
        if (memBudgetBytes > 0) {
            out += detail::format(
                " %llu MiB resident,",
                static_cast<unsigned long long>(memBudgetBytes >> 20));
        }
        out.pop_back(); // trailing comma
    }
    return out;
}

} // namespace tmu::sim
