/**
 * @file
 * The simulated multicore: N cores, their TraceSources, optional
 * per-core devices (TMU engines), and the shared memory system,
 * advanced by the event-driven Scheduler (sim/sched.hpp) — quiescent
 * components sleep instead of burning a virtual call per cycle.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/core.hpp"
#include "sim/memsys.hpp"
#include "sim/sched.hpp"
#include "sim/telemetry.hpp"
#include "sim/watchdog.hpp"

namespace tmu::sim {

/** Current resident-set size of this process in bytes (0 if unknown). */
std::uint64_t hostResidentBytes();

/** Monotonic host clock in milliseconds (steady, not wall time). */
std::uint64_t hostMonotonicMs();

/** Whole-run result summary. */
struct SimResult
{
    Cycle cycles = 0;          //!< wall-clock cycles (max over cores)
    CoreStats total;           //!< summed core counters
    std::vector<CoreStats> perCore;
    DramStats dram;
    double achievedGBs = 0.0;
    double gflops = 0.0;       //!< achieved FP throughput

    /** How the run ended; anything but Completed is a failed run. */
    TerminationReason termination = TerminationReason::Completed;
    /** Structured occupancy dump, set when termination != Completed. */
    std::string diagnostic;
    /** Event/wake/skip counters of the run's scheduler. */
    SchedulerStats sched;

    bool completed() const
    {
        return termination == TerminationReason::Completed;
    }

    /** Fraction helpers for the Fig. 3 / Fig. 11 breakdowns. */
    double commitFrac() const;
    double frontendFrac() const;
    double backendFrac() const;
};

/** One simulated machine instance. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    MemorySystem &mem() { return mem_; }
    Core &core(int i) { return *cores_[static_cast<size_t>(i)]; }
    int numCores() const { return static_cast<int>(cores_.size()); }
    const SystemConfig &config() const { return cfg_; }

    /**
     * Scheduler time after run(): the cycle of the last dispatched
     * event, which may trail SimResult::cycles (max *charged* core
     * cycles) by a final no-op dispatch. Telemetry's final row lands
     * here.
     */
    Cycle now() const { return now_; }

    /** Attach a core's micro-op supply (not owned). */
    void attachSource(int coreId, TraceSource *src);

    /** Attach a per-cycle device such as a TMU engine (not owned). */
    void addDevice(Tickable *dev);

    /**
     * Attach a timeline tracer (not owned; nullptr detaches). Each core
     * becomes thread @c core<i> of process @p pid and reports its
     * per-cycle commit/frontend/backend attribution as a phase track.
     */
    void setTracer(stats::TraceWriter *tracer, int pid);

    /**
     * Attach an interval telemetry sampler (not owned; nullptr
     * detaches). run() clocks it at every interval boundary — forcing
     * a Scheduler::syncAll first so sleep-window back-fills land — and
     * once more at the final cycle, so every run yields at least one
     * row and the series is identical in event-driven and dense modes.
     */
    void setTelemetry(TelemetrySampler *telemetry)
    {
        telemetry_ = telemetry;
    }

    /**
     * Run until every core is drained and every device idle. A
     * forward-progress watchdog (cfg.watchdogCycles; 0 disables)
     * guards the loop: a window with no committed work anywhere ends
     * the run with a Deadlock/Livelock termination and a structured
     * occupancy dump in SimResult::diagnostic, instead of spinning to
     * the @p maxCycles safety cap.
     *
     * Per-run budgets (cfg.deadlineMs, cfg.cycleBudget,
     * cfg.memBudgetBytes; each 0-disabled) are enforced here too,
     * cooperatively at the same poll boundaries, yielding
     * DeadlineExceeded / CycleBudgetExceeded / MemBudgetExceeded
     * terminations with the same structured diagnostics. The watchdog
     * is sampled before the budget checks, so a deadlocked run whose
     * deadline fires in the same interval is still classified as a
     * deadlock — the budget trip is the symptom, not the diagnosis.
     */
    SimResult run(Cycle maxCycles = 2'000'000'000ULL);

    /**
     * Override the millisecond clock behind cfg.deadlineMs (tests pin
     * it to a scripted sequence; default is the host monotonic clock).
     */
    void
    setMsClockForTest(std::function<std::uint64_t()> clock)
    {
        msClock_ = std::move(clock);
    }

    /** Occupancy dump of every core, cache and device (diagnosis). */
    std::string occupancyDump(Cycle now) const;

  private:
    /** Committed work across cores and devices (watchdog signal). */
    std::uint64_t progressCount() const;
    /** Memory-side event count (watchdog trip classification). */
    std::uint64_t activityCount() const;

    SystemConfig cfg_;
    MemorySystem mem_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Tickable *> devices_;
    Cycle now_ = 0;
    stats::TraceWriter *tracer_ = nullptr; //!< borrowed, may be null
    TelemetrySampler *telemetry_ = nullptr; //!< borrowed, may be null
    int tracePid_ = 0;
    std::function<std::uint64_t()> msClock_; //!< null = host clock
};

} // namespace tmu::sim
