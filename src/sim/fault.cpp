#include "fault.hpp"

#include <charconv>

namespace tmu::sim {

namespace {

constexpr const char *kKindNames[kNumFaultKinds] = {
    "mem-lat", "drop-pf", "outq-stall", "fill-delay"};

/**
 * Per-site stream salt: the site's position in the original six-site
 * table plus one. fill-delay keeps salt 5 from its old index 4, so a
 * given (seed, spec) still draws the same fault sequence, and gives
 * the same cycles, as before the table shrank.
 */
constexpr std::uint64_t kStreamSalt[kNumFaultKinds] = {1, 2, 3, 5};

Expected<double>
parseProb(const std::string &tok)
{
    double v = 0.0;
    const char *begin = tok.c_str();
    const char *end = begin + tok.size();
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr != end)
        return TMU_ERR(Errc::ParseError, "bad probability '%s'",
                       tok.c_str());
    if (v < 0.0 || v > 1.0)
        return TMU_ERR(Errc::OutOfRange,
                       "probability %s outside [0, 1]", tok.c_str());
    return v;
}

Expected<Cycle>
parseCycles(const std::string &tok)
{
    std::uint64_t v = 0;
    const char *begin = tok.c_str();
    const char *end = begin + tok.size();
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec == std::errc::result_out_of_range)
        return TMU_ERR(Errc::Overflow, "cycle count '%s' overflows",
                       tok.c_str());
    if (ec != std::errc{} || ptr != end)
        return TMU_ERR(Errc::ParseError, "bad cycle count '%s'",
                       tok.c_str());
    return static_cast<Cycle>(v);
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    return kKindNames[static_cast<std::size_t>(k)];
}

bool
FaultSpec::any() const
{
    for (const FaultSiteSpec &s : sites) {
        if (s.probability > 0.0)
            return true;
    }
    return false;
}

Expected<FaultSpec>
FaultSpec::parse(const std::string &text)
{
    FaultSpec spec;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t sep = text.find(',', pos);
        if (sep == std::string::npos)
            sep = text.size();
        const std::string item = text.substr(pos, sep - pos);
        pos = sep + 1;
        if (item.empty())
            continue;

        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            return TMU_ERR(Errc::ParseError,
                           "expected site=prob[:cycles], got '%s'",
                           item.c_str());
        }
        const std::string name = item.substr(0, eq);
        int kind = -1;
        for (int k = 0; k < kNumFaultKinds; ++k) {
            if (name == kKindNames[k])
                kind = k;
        }
        if (kind < 0) {
            std::string known;
            for (int k = 0; k < kNumFaultKinds; ++k) {
                known += kKindNames[k];
                if (k + 1 < kNumFaultKinds)
                    known += ", ";
            }
            return TMU_ERR(Errc::UnknownName,
                           "unknown fault site '%s' (known: %s)",
                           name.c_str(), known.c_str());
        }

        std::string probTok = item.substr(eq + 1);
        FaultSiteSpec &site =
            spec.sites[static_cast<std::size_t>(kind)];
        if (const std::size_t colon = probTok.find(':');
            colon != std::string::npos) {
            auto cycles = parseCycles(probTok.substr(colon + 1));
            if (!cycles) {
                return std::move(cycles.error())
                    .context("in fault site '" + name + "'");
            }
            site.extraCycles = *cycles;
            probTok = probTok.substr(0, colon);
        }
        auto prob = parseProb(probTok);
        if (!prob) {
            return std::move(prob.error())
                .context("in fault site '" + name + "'");
        }
        site.probability = *prob;
    }
    return spec;
}

FaultInjector::FaultInjector(std::uint64_t seed, const FaultSpec &spec)
    : spec_(spec)
{
    // One independent stream per site so the decision sequence of one
    // site does not depend on how often the others are consulted.
    for (int k = 0; k < kNumFaultKinds; ++k) {
        rngs_[static_cast<std::size_t>(k)].reseed(
            seed ^ (0x9e3779b97f4a7c15ULL * kStreamSalt[k]));
    }
}

bool
FaultInjector::shouldInject(FaultKind k)
{
    const std::size_t i = static_cast<std::size_t>(k);
    const double p = spec_.sites[i].probability;
    if (p <= 0.0 || !rngs_[i].nextBool(p))
        return false;
    ++injected_[i];
    return true;
}

Cycle
FaultInjector::extraCycles(FaultKind k) const
{
    return spec_.site(k).extraCycles;
}

std::uint64_t
FaultInjector::injected(FaultKind k) const
{
    return injected_[static_cast<std::size_t>(k)];
}

std::uint64_t
FaultInjector::totalInjected() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t n : injected_)
        total += n;
    return total;
}

void
FaultInjector::registerStats(stats::StatRegistry &reg,
                             const std::string &prefix) const
{
    for (int k = 0; k < kNumFaultKinds; ++k) {
        const std::size_t i = static_cast<std::size_t>(k);
        if (spec_.sites[i].probability <= 0.0)
            continue;
        const std::string site = kKindNames[i];
        reg.scalar(prefix + site + ".injected",
                   "faults injected at site " + site, &injected_[i]);
    }
    reg.scalarU64(prefix + "injected", "total faults injected",
                  [this] { return totalInjected(); });
}

} // namespace tmu::sim
