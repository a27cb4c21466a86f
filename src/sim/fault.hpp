/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * A seeded FaultInjector is threaded (borrowed, optional) through the
 * memory system and the TMU engine. Each injection site rolls an
 * independent xoshiro stream, so a given (seed, spec) pair replays the
 * exact same fault sequence run after run — a failure found under
 * injection is reproducible from its command line.
 *
 * Every site perturbs timing only; none can change a computed value:
 *  - mem-lat:    extra latency on an accepted memory access;
 *  - drop-pf:    silently drop a prefetch candidate;
 *  - outq-stall: backpressure stall on outQ chunk consumption;
 *  - fill-delay: delay a TMU fill completion.
 *
 * A run under injection must still complete and verify; each site
 * counts its injections.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/statreg.hpp"
#include "common/types.hpp"

namespace tmu::sim {

/** Injection site identifiers. */
enum class FaultKind : int {
    MemLatencySpike = 0, //!< extra cycles on a memory access
    DropPrefetch,        //!< discard a prefetch candidate
    OutqStall,           //!< stall outQ consumption
    FillDelay,           //!< delay a TMU fill completion
};
inline constexpr int kNumFaultKinds = 4;

/** Stable spec/stat name of a fault kind ("mem-lat"). */
const char *faultKindName(FaultKind k);

/** Per-site knobs. */
struct FaultSiteSpec
{
    double probability = 0.0; //!< per-opportunity injection chance
    Cycle extraCycles = 0;    //!< latency payload (site-dependent)
};

/** Whole-run fault plan. */
struct FaultSpec
{
    std::array<FaultSiteSpec, kNumFaultKinds> sites;

    const FaultSiteSpec &
    site(FaultKind k) const
    {
        return sites[static_cast<std::size_t>(k)];
    }

    /** True if any site has a nonzero probability. */
    bool any() const;

    /**
     * Parse "site=prob[:cycles][,site=prob[:cycles]...]", e.g.
     * "mem-lat=0.01:200,outq-stall=0.02:32". Unlisted sites stay off.
     */
    static Expected<FaultSpec> parse(const std::string &text);
};

/** Seeded, deterministic fault source shared by one simulation. */
class FaultInjector
{
  public:
    FaultInjector(std::uint64_t seed, const FaultSpec &spec);

    /** Roll site @p k once; true (and counted) if a fault fires now. */
    bool shouldInject(FaultKind k);

    /** Latency payload of site @p k. */
    Cycle extraCycles(FaultKind k) const;

    /** Faults injected so far at site @p k. */
    std::uint64_t injected(FaultKind k) const;

    /** Faults injected so far across all sites. */
    std::uint64_t totalInjected() const;

    /**
     * Register the injected count per active site plus the total under
     * @p prefix (e.g. "faults.").
     */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    FaultSpec spec_;
    std::array<Rng, kNumFaultKinds> rngs_;
    std::array<std::uint64_t, kNumFaultKinds> injected_{};
};

} // namespace tmu::sim
