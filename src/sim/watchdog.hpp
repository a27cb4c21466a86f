/**
 * @file
 * Forward-progress watchdog for System::run.
 *
 * The simulator's central liveness claim — marshaled traversal keeps
 * cores fed without stalling — is only falsifiable if a hang fails
 * loudly. Instead of silently spinning to the cycle cap, System::run
 * feeds this watchdog periodic progress samples; when a full window
 * passes with no committed work anywhere, the watchdog trips and
 * classifies the hang:
 *
 *  - Deadlock: no commits AND no memory-side activity — every unit is
 *    blocked waiting on another (or on an event that never fires);
 *  - Livelock: no commits but the machine is still generating traffic
 *    (retry storms, spinning arbiters).
 *
 * On a trip, System::run attaches a structured occupancy dump
 * (ROB/LSQ/MSHR/device state) to the SimResult so the failure is
 * diagnosable from the run report alone.
 */

#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace tmu::sim {

/** How a System::run ended. */
enum class TerminationReason : int {
    Completed = 0, //!< every core drained, every device idle
    CycleCap,      //!< hit the maxCycles safety cap while still active
    Deadlock,      //!< watchdog: no progress, no activity
    Livelock,      //!< watchdog: no progress despite activity
    DeadlineExceeded,    //!< budget: wall-clock deadline passed
    CycleBudgetExceeded, //!< budget: simulated-cycle budget spent
    MemBudgetExceeded,   //!< budget: host resident set over budget
};

/** Stable display name ("completed", "deadlock", ...). */
inline const char *
terminationName(TerminationReason r)
{
    switch (r) {
      case TerminationReason::Completed: return "completed";
      case TerminationReason::CycleCap:  return "cycle-cap";
      case TerminationReason::Deadlock:  return "deadlock";
      case TerminationReason::Livelock:  return "livelock";
      case TerminationReason::DeadlineExceeded:
        return "deadline-exceeded";
      case TerminationReason::CycleBudgetExceeded:
        return "cycle-budget-exceeded";
      case TerminationReason::MemBudgetExceeded:
        return "mem-budget-exceeded";
    }
    return "unknown";
}

/** No-progress-window detector with deadlock/livelock classification. */
class ProgressWatchdog
{
  public:
    /** @p windowCycles 0 disables the watchdog entirely. */
    explicit ProgressWatchdog(Cycle windowCycles)
        : window_(windowCycles)
    {
    }

    bool enabled() const { return window_ > 0; }
    Cycle window() const { return window_; }

    /**
     * Feed one sample.
     * @param now      current cycle.
     * @param progress monotonic count of committed work: retired ops
     *                 plus device progress counters.
     * @param activity monotonic count of memory-side events (DRAM and
     *                 LLC accesses) used only to classify a trip.
     * @return Completed while healthy; Deadlock/Livelock on a trip.
     */
    TerminationReason
    sample(Cycle now, std::uint64_t progress, std::uint64_t activity)
    {
        if (!enabled())
            return TerminationReason::Completed;
        if (!primed_ || progress != lastProgress_) {
            primed_ = true;
            lastProgress_ = progress;
            progressAt_ = now;
            activityAtStall_ = activity;
            return TerminationReason::Completed;
        }
        if (now - progressAt_ < window_)
            return TerminationReason::Completed;
        return activity != activityAtStall_
                   ? TerminationReason::Livelock
                   : TerminationReason::Deadlock;
    }

    /** Cycles since the last observed progress. */
    Cycle
    stalledFor(Cycle now) const
    {
        return primed_ ? now - progressAt_ : 0;
    }

  private:
    Cycle window_;
    bool primed_ = false;
    std::uint64_t lastProgress_ = 0;
    std::uint64_t activityAtStall_ = 0;
    Cycle progressAt_ = 0;
};

} // namespace tmu::sim
