#include "prefetch.hpp"

#include <cmath>
#include <cstring>
#include "sim/addrspace.hpp"

namespace tmu::sim {

namespace {

constexpr Addr kPageBytes = 4096;

Addr
pageOf(Addr a)
{
    return a / kPageBytes;
}

} // namespace

void
StridePrefetcher::observe(Addr addr, PrefetchList &out)
{
    const Addr page = pageOf(addr);
    Entry &e = table_[static_cast<std::size_t>(page) % kEntries];
    if (e.page != page) {
        e = Entry{page, addr, 0, 0};
        return;
    }
    const std::int64_t stride =
        static_cast<std::int64_t>(addr) -
        static_cast<std::int64_t>(e.lastAddr);
    if (stride != 0 && stride == e.stride) {
        if (e.confidence < 3)
            ++e.confidence;
    } else if (stride != 0) {
        e.stride = stride;
        e.confidence = 0;
    }
    e.lastAddr = addr;
    if (e.confidence >= 1 && e.stride != 0) {
        for (int d = 1; d <= degree_; ++d) {
            const auto target = static_cast<std::int64_t>(addr) +
                                static_cast<std::int64_t>(d) * e.stride;
            if (target >= 0 &&
                pageOf(static_cast<Addr>(target)) == page) {
                out.push_back(lineAddr(static_cast<Addr>(target)));
                ++candidates_;
            }
        }
    }
}

BestOffsetPrefetcher::BestOffsetPrefetcher()
{
    // Small-offset subset of Michaud's candidate list.
    offsets_ = {1, 2, 3, 4, 5, 6, 8, 12, 16};
    scores_.assign(offsets_.size(), 0);
}

void
BestOffsetPrefetcher::observe(Addr line, PrefetchList &out)
{
    // Score the offset under test: would line - testOffset have been a
    // recent request (i.e. would the prefetch have been timely)?
    const int testOff = offsets_[static_cast<std::size_t>(testIndex_)];
    const Addr wanted =
        line - static_cast<Addr>(testOff) * kLineBytes;
    for (const Addr r : recent_) {
        if (r == wanted && wanted <= line) {
            ++scores_[static_cast<std::size_t>(testIndex_)];
            break;
        }
    }
    recent_[recentHead_] = line;
    recentHead_ = (recentHead_ + 1) % kRecent;

    testIndex_ = (testIndex_ + 1) % static_cast<int>(offsets_.size());
    if (testIndex_ == 0 && ++round_ >= kRounds) {
        // End of a scoring phase: adopt the best offset.
        int best = 0;
        for (std::size_t i = 1; i < scores_.size(); ++i) {
            if (scores_[i] > scores_[static_cast<std::size_t>(best)])
                best = static_cast<int>(i);
        }
        bestOffset_ = offsets_[static_cast<std::size_t>(best)];
        std::fill(scores_.begin(), scores_.end(), 0);
        round_ = 0;
    }

    out.push_back(line + static_cast<Addr>(bestOffset_) * kLineBytes);
    ++candidates_;
}

void
ImpPrefetcher::addIndexRegion(Addr base, std::uint64_t bytes)
{
    regions_.push_back({base, bytes});
}

bool
ImpPrefetcher::readIndex(Addr addr, Index &value) const
{
    for (const Region &r : regions_) {
        if (addr >= r.base && addr + sizeof(Index) <= r.base + r.bytes) {
            // The simulated address *is* a host pointer; this models
            // IMP's hardware snooping of fill data.
            std::memcpy(&value, hostPtr(addr), sizeof(Index));
            return true;
        }
    }
    return false;
}

void
ImpPrefetcher::observe(Addr prodAddr, Addr consAddr, PrefetchList &out)
{
    Index idxValue = 0;
    if (!readIndex(prodAddr, idxValue))
        return;

    if (!trained_) {
        if (haveSample_ && idxValue != lastIdxValue_) {
            const double coeff =
                (static_cast<double>(consAddr) -
                 static_cast<double>(lastConsAddr_)) /
                static_cast<double>(idxValue - lastIdxValue_);
            const double base =
                static_cast<double>(consAddr) -
                coeff * static_cast<double>(idxValue);
            if (agreeingSamples_ > 0 && coeff == coeff_ &&
                std::abs(base - base_) < 1.0) {
                if (++agreeingSamples_ >= cfg_.samplesToTrain &&
                    coeff_ > 0.0)
                    trained_ = true;
            } else {
                coeff_ = coeff;
                base_ = base;
                agreeingSamples_ = 1;
            }
        }
        lastIdxValue_ = idxValue;
        lastConsAddr_ = consAddr;
        haveSample_ = true;
    }

    if (trained_) {
        // Read the index `distance` elements ahead (bounded by the
        // registered region) and prefetch its consumer line.
        const Addr ahead =
            prodAddr + static_cast<Addr>(cfg_.distance) * sizeof(Index);
        Index futureIdx = 0;
        if (readIndex(ahead, futureIdx)) {
            const double target =
                coeff_ * static_cast<double>(futureIdx) + base_;
            if (target >= 0.0) {
                out.push_back(lineAddr(static_cast<Addr>(target)));
                ++candidates_;
            }
        }
    }
}

} // namespace tmu::sim
