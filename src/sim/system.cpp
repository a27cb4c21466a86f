#include "system.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include "common/log.hpp"
#include "sim/addrspace.hpp"

namespace tmu::sim {

std::uint64_t
hostResidentBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long totalPages = 0;
    unsigned long long residentPages = 0;
    const int got =
        std::fscanf(f, "%llu %llu", &totalPages, &residentPages);
    std::fclose(f);
    if (got != 2)
        return 0;
    const long page = ::sysconf(_SC_PAGESIZE);
    if (page <= 0)
        return 0;
    return static_cast<std::uint64_t>(residentPages) *
           static_cast<std::uint64_t>(page);
}

std::uint64_t
hostMonotonicMs()
{
    using namespace std::chrono;
    return static_cast<std::uint64_t>(
        duration_cast<milliseconds>(
            steady_clock::now().time_since_epoch())
            .count());
}

double
SimResult::commitFrac() const
{
    const double c = static_cast<double>(total.cycles);
    return c > 0 ? static_cast<double>(total.commitCycles) / c : 0.0;
}

double
SimResult::frontendFrac() const
{
    const double c = static_cast<double>(total.cycles);
    return c > 0 ? static_cast<double>(total.frontendStallCycles) / c
                 : 0.0;
}

double
SimResult::backendFrac() const
{
    const double c = static_cast<double>(total.cycles);
    return c > 0 ? static_cast<double>(total.backendStallCycles) / c : 0.0;
}

System::System(const SystemConfig &cfg) : cfg_(cfg), mem_(cfg)
{
    // Each simulated run owns a fresh canonical address layout: the
    // same workload maps its buffers to the same simulated addresses
    // no matter which host thread runs it or where malloc placed them.
    resetAddrSpace();
    for (int c = 0; c < cfg.cores; ++c)
        cores_.push_back(std::make_unique<Core>(c, cfg.core, mem_));
}

void
System::attachSource(int coreId, TraceSource *src)
{
    cores_[static_cast<size_t>(coreId)]->attach(src);
}

void
System::addDevice(Tickable *dev)
{
    devices_.push_back(dev);
}

void
System::setTracer(stats::TraceWriter *tracer, int pid)
{
    tracer_ = tracer;
    tracePid_ = pid;
    for (auto &core : cores_) {
        core->setTracer(tracer, pid);
        if (tracer != nullptr) {
            tracer->threadName(pid, core->id(),
                               "core" + std::to_string(core->id()));
        }
    }
}

std::uint64_t
System::progressCount() const
{
    std::uint64_t n = 0;
    for (const auto &core : cores_)
        n += core->stats().retiredOps;
    for (const Tickable *dev : devices_)
        n += dev->progressCount();
    return n;
}

std::uint64_t
System::activityCount() const
{
    std::uint64_t n = mem_.dramStats().accesses;
    for (int c = 0; c < cfg_.cores; ++c)
        n += mem_.l1(c).accesses() + mem_.l2(c).accesses();
    for (int s = 0; s < cfg_.mem.llcSlices; ++s)
        n += mem_.llcSlice(s).accesses();
    return n;
}

std::string
System::occupancyDump(Cycle now) const
{
    std::string out;
    for (const auto &core : cores_) {
        const int c = core->id();
        out += detail::format(
            "core%d: drained=%d rob=%d/%d lq=%d/%d sq=%d/%d "
            "retired=%llu l1Mshr=%d/%d l2Mshr=%d/%d\n",
            c, core->drained(), core->robOccupancy(),
            core->robCapacity(), core->loadQueueOccupancy(),
            cfg_.core.loadQueue, core->storeQueueOccupancy(),
            cfg_.core.storeQueue,
            static_cast<unsigned long long>(core->stats().retiredOps),
            mem_.l1(c).inflight(), cfg_.l1.mshrs,
            mem_.l2(c).inflight(), cfg_.l2.mshrs);
    }
    int llcInflight = 0;
    for (int s = 0; s < cfg_.mem.llcSlices; ++s)
        llcInflight += mem_.llcSlice(s).inflight();
    out += detail::format(
        "llc: mshr=%d/%d dram.accesses=%llu cycle=%llu\n", llcInflight,
        cfg_.mem.llcSlices * cfg_.llcSlice.mshrs,
        static_cast<unsigned long long>(mem_.dramStats().accesses),
        static_cast<unsigned long long>(now));
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        const std::string state = devices_[d]->debugState();
        if (state.empty())
            continue;
        out += detail::format(
            "device%zu: progress=%llu\n", d,
            static_cast<unsigned long long>(
                devices_[d]->progressCount()));
        out += state;
    }
    return out;
}

SimResult
System::run(Cycle maxCycles)
{
    // Sampling the progress counters every cycle would dominate the
    // run; once per kPollInterval bounds detection latency to one
    // extra interval. The poll is a scheduled event of its own: when
    // every component sleeps past a poll point, the clock jumps there
    // directly and only the sample executes.
    constexpr Cycle kPollInterval = 1024;
    ProgressWatchdog watchdog(cfg_.watchdogCycles);

    // Per-run budgets. The simulated-cycle budget is a
    // second hard stop alongside maxCycles; the host-resource budgets
    // (wall clock, resident set) are sampled at poll boundaries like
    // the watchdog. On a tie the budget wins the name: the user asked
    // for that bound explicitly, the safety cap is implicit.
    Cycle hardStop = maxCycles;
    bool cycleBudgetStop = false;
    if (cfg_.cycleBudget > 0 && cfg_.cycleBudget <= maxCycles) {
        hardStop = cfg_.cycleBudget;
        cycleBudgetStop = true;
    }
    const bool pollBudgets =
        cfg_.deadlineMs > 0 || cfg_.memBudgetBytes > 0;
    const bool polling = watchdog.enabled() || pollBudgets;
    const auto nowMs = [this]() {
        return msClock_ ? msClock_() : hostMonotonicMs();
    };
    const std::uint64_t startMs = cfg_.deadlineMs > 0 ? nowMs() : 0;
    std::uint64_t residentAtTrip = 0;

    // Devices before cores: the registration order fixes the intra-
    // cycle ordering, so an engine sealing a chunk at cycle t is
    // visible to its (later-ordered) host core at t, exactly as in
    // the per-cycle loop.
    Scheduler sched(now_);
    sched.setDense(cfg_.schedDense ||
                   std::getenv("TMU_SCHED_DENSE") != nullptr);
    for (Tickable *dev : devices_)
        sched.add(dev);
    for (auto &core : cores_)
        sched.add(core.get());

    SimResult res;
    Cycle nextPoll = (now_ / kPollInterval + 1) * kPollInterval;
    // Telemetry samples are scheduled the same way as watchdog polls:
    // interval boundaries clamp the clock jump, and at each boundary a
    // syncAll back-fills every sleeping component (a provable no-op on
    // simulated state) so the sampled counters match the dense loop.
    const Cycle sampleEvery =
        telemetry_ != nullptr ? telemetry_->interval() : 0;
    Cycle nextSample =
        sampleEvery ? (now_ / sampleEvery + 1) * sampleEvery : 0;
    bool capped = false;
    while (!sched.idle()) {
        const Cycle due = sched.nextDue();
        Cycle t = due;
        if (polling && nextPoll < t)
            t = nextPoll;
        if (sampleEvery != 0 && nextSample < t)
            t = nextSample;
        if (t > hardStop) {
            capped = true;
            break;
        }
        if (t == due)
            sched.step(t);
        else
            sched.advanceTo(t); // watchdog/sample-only cycle: no ticks
        now_ = sched.now();
        if (sampleEvery != 0 && now_ >= nextSample) {
            sched.syncAll(now_);
            telemetry_->sample(now_);
            nextSample = (now_ / sampleEvery + 1) * sampleEvery;
        }
        if (polling && t >= nextPoll) {
            nextPoll += kPollInterval;
            if (watchdog.enabled()) {
                // Progress/activity counters are frozen across sleep
                // windows (sleeping components by definition touch
                // neither), so the sample sees exactly the values the
                // per-cycle loop would have seen here. Sampled before
                // the budget checks: a deadlock that coincides with a
                // budget trip is still diagnosed as a deadlock.
                const TerminationReason trip = watchdog.sample(
                    now_, progressCount(), activityCount());
                if (trip != TerminationReason::Completed) {
                    res.termination = trip;
                    break;
                }
            }
            if (cfg_.memBudgetBytes > 0) {
                const std::uint64_t rss = hostResidentBytes();
                if (rss > cfg_.memBudgetBytes) {
                    residentAtTrip = rss;
                    res.termination =
                        TerminationReason::MemBudgetExceeded;
                    break;
                }
            }
            if (cfg_.deadlineMs > 0 &&
                nowMs() - startMs >= cfg_.deadlineMs) {
                res.termination = TerminationReason::DeadlineExceeded;
                break;
            }
        }
    }
    if (capped) {
        now_ = hardStop;
        res.termination = cycleBudgetStop
                              ? TerminationReason::CycleBudgetExceeded
                              : TerminationReason::CycleCap;
    }
    if (!res.completed()) {
        // Early end: run every still-live component once at the final
        // cycle so sleep-window counter back-fills land before the
        // occupancy dump and stats aggregation below.
        sched.syncAll(now_);
    }
    if (telemetry_ != nullptr) {
        // Always-emitted final row: zero-cycle runs and intervals
        // longer than the run still yield one sample (at the final
        // cycle; a duplicate of an interval boundary coalesces).
        telemetry_->sample(now_);
    }
    res.sched = sched.stats();

    if (!res.completed()) {
        switch (res.termination) {
        case TerminationReason::CycleCap:
            res.diagnostic = detail::format(
                "cycle-cap: still active at the %llu-cycle safety "
                "cap\n",
                static_cast<unsigned long long>(maxCycles));
            break;
        case TerminationReason::CycleBudgetExceeded:
            res.diagnostic = detail::format(
                "cycle-budget-exceeded: still active at the "
                "%llu-simulated-cycle budget\n",
                static_cast<unsigned long long>(cfg_.cycleBudget));
            break;
        case TerminationReason::DeadlineExceeded:
            res.diagnostic = detail::format(
                "deadline-exceeded: host wall clock passed the "
                "%llu ms deadline at cycle %llu\n",
                static_cast<unsigned long long>(cfg_.deadlineMs),
                static_cast<unsigned long long>(now_));
            break;
        case TerminationReason::MemBudgetExceeded:
            res.diagnostic = detail::format(
                "mem-budget-exceeded: resident set %llu MiB over the "
                "%llu MiB budget at cycle %llu\n",
                static_cast<unsigned long long>(residentAtTrip >> 20),
                static_cast<unsigned long long>(cfg_.memBudgetBytes >>
                                                20),
                static_cast<unsigned long long>(now_));
            break;
        default:
            res.diagnostic = detail::format(
                "%s: no forward progress for %llu cycles "
                "(watchdog window %llu)\n",
                terminationName(res.termination),
                static_cast<unsigned long long>(
                    watchdog.stalledFor(now_)),
                static_cast<unsigned long long>(watchdog.window()));
            break;
        }
        res.diagnostic += occupancyDump(now_);
        TMU_WARN("simulation ended early (%s) at cycle %llu\n%s",
                 terminationName(res.termination),
                 static_cast<unsigned long long>(now_),
                 res.diagnostic.c_str());
        if (tracer_ != nullptr) {
            const bool budget =
                res.termination ==
                    TerminationReason::DeadlineExceeded ||
                res.termination ==
                    TerminationReason::CycleBudgetExceeded ||
                res.termination ==
                    TerminationReason::MemBudgetExceeded;
            // Budget trips get their own track: they are resource
            // limits, not watchdog diagnoses.
            tracer_->instant(tracePid_, 0,
                             budget ? "budget" : "watchdog",
                             std::string(budget ? "budget_"
                                               : "watchdog_") +
                                 terminationName(res.termination),
                             now_);
        }
    }

    for (auto &core : cores_) {
        const CoreStats &s = core->stats();
        res.perCore.push_back(s);
        res.cycles = std::max(res.cycles, s.cycles);
        res.total.cycles += s.cycles;
        res.total.commitCycles += s.commitCycles;
        res.total.frontendStallCycles += s.frontendStallCycles;
        res.total.backendStallCycles += s.backendStallCycles;
        res.total.supplyWaitCycles += s.supplyWaitCycles;
        res.total.attrRetiring += s.attrRetiring;
        res.total.attrFrontendBound += s.attrFrontendBound;
        res.total.attrBackendMemL1 += s.attrBackendMemL1;
        res.total.attrBackendMemL2 += s.attrBackendMemL2;
        res.total.attrBackendMemLlc += s.attrBackendMemLlc;
        res.total.attrBackendMemDram += s.attrBackendMemDram;
        res.total.attrBackendExec += s.attrBackendExec;
        res.total.attrOutqEmpty += s.attrOutqEmpty;
        res.total.supplyOccupied += s.supplyOccupied;
        res.total.supplyStarved += s.supplyStarved;
        res.total.supplyBackpressured += s.supplyBackpressured;
        res.total.supplyDrained += s.supplyDrained;
        res.total.retiredOps += s.retiredOps;
        res.total.loads += s.loads;
        res.total.stores += s.stores;
        res.total.flops += s.flops;
        res.total.branches += s.branches;
        res.total.mispredicts += s.mispredicts;
        res.total.loadLatencySum += s.loadLatencySum;
    }
    res.dram = mem_.dramStats();
    res.achievedGBs = mem_.achievedGBs(res.cycles);
    if (res.cycles > 0) {
        const double seconds = static_cast<double>(res.cycles) /
                               (cfg_.mem.coreGHz * 1e9);
        res.gflops =
            static_cast<double>(res.total.flops) / seconds / 1e9;
    }
    return res;
}

} // namespace tmu::sim
