/**
 * @file
 * Forward-progress watchdog: a stuck device must end the run with a
 * Deadlock (no memory activity) or Livelock (activity but no progress)
 * termination and a structured occupancy dump, instead of silently
 * spinning to the cycle cap. Also the per-run budget trips (deadline,
 * cycle budget, memory budget) in both scheduler modes, and the host
 * probes they sample.
 */

#include <gtest/gtest.h>

#include "sim/system.hpp"
#include "sim/watchdog.hpp"

using namespace tmu;
using namespace tmu::sim;

namespace {

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.cores = 1;
    cfg.watchdogCycles = 20'000; // trip fast in the tests
    return cfg;
}

/** Device that claims to be busy forever and never makes progress. */
class StuckDevice : public Tickable
{
  public:
    bool tick(Cycle) override { return true; }
    std::uint64_t progressCount() const override { return 0; }
    std::string debugState() const override
    {
        return "stuck-device: waiting on a response that never "
               "arrives\n";
    }
};

/**
 * Device that hammers the memory system without ever finishing: the
 * classic livelock shape (activity, no progress).
 */
class ThrashingDevice : public Tickable
{
  public:
    explicit ThrashingDevice(MemorySystem &mem) : mem_(&mem) {}

    bool
    tick(Cycle now) override
    {
        mem_->tmuAccess(0, addr_, now);
        addr_ += 64;
        return true;
    }
    std::uint64_t progressCount() const override { return 0; }

  private:
    MemorySystem *mem_;
    Addr addr_ = 0x1000;
};

/**
 * Device that parks itself on the scheduler (wakeHint = kWakeNever)
 * and is never woken: the event-driven analogue of a deadlock. The
 * watchdog must still trip — its poll is a scheduled event of its
 * own, not a side effect of component ticks.
 */
class ParkedDevice : public Tickable
{
  public:
    bool
    tick(Cycle) override
    {
        ++ticks_;
        return true;
    }
    Cycle wakeHint(Cycle) const override { return kWakeNever; }
    std::uint64_t progressCount() const override { return 0; }
    std::string debugState() const override
    {
        return "parked-device: waiting on a wake that never fires\n";
    }
    std::uint64_t ticks() const { return ticks_; }

  private:
    std::uint64_t ticks_ = 0;
};

/** Device that works for a while, then gets stuck. */
class EventuallyStuckDevice : public Tickable
{
  public:
    explicit EventuallyStuckDevice(Cycle healthyUntil)
        : healthyUntil_(healthyUntil)
    {
    }

    bool
    tick(Cycle now) override
    {
        if (now < healthyUntil_)
            ++progress_;
        return true;
    }
    std::uint64_t progressCount() const override { return progress_; }

  private:
    Cycle healthyUntil_;
    std::uint64_t progress_ = 0;
};

} // namespace

TEST(Watchdog, CleanRunCompletes)
{
    System sys(tinyConfig());
    const SimResult res = sys.run();
    EXPECT_TRUE(res.completed());
    EXPECT_EQ(res.termination, TerminationReason::Completed);
    EXPECT_TRUE(res.diagnostic.empty());
}

TEST(Watchdog, StuckDeviceTripsDeadlock)
{
    System sys(tinyConfig());
    StuckDevice dev;
    sys.addDevice(&dev);
    const SimResult res = sys.run(/*maxCycles=*/10'000'000);

    EXPECT_FALSE(res.completed());
    EXPECT_EQ(res.termination, TerminationReason::Deadlock);
    // Tripped by the watchdog, far before the safety cap.
    EXPECT_LT(res.cycles, 1'000'000u);

    // The diagnostic is a structured dump: per-core occupancies and
    // the device's own state.
    EXPECT_NE(res.diagnostic.find("deadlock"), std::string::npos)
        << res.diagnostic;
    EXPECT_NE(res.diagnostic.find("core0:"), std::string::npos)
        << res.diagnostic;
    EXPECT_NE(res.diagnostic.find("rob="), std::string::npos)
        << res.diagnostic;
    EXPECT_NE(res.diagnostic.find("llc:"), std::string::npos)
        << res.diagnostic;
    EXPECT_NE(res.diagnostic.find("stuck-device"), std::string::npos)
        << res.diagnostic;
}

TEST(Watchdog, ParkedDeviceTripsDeadlockWithoutSpinning)
{
    System sys(tinyConfig());
    ParkedDevice dev;
    sys.addDevice(&dev);
    const SimResult res = sys.run(/*maxCycles=*/10'000'000);

    EXPECT_FALSE(res.completed());
    EXPECT_EQ(res.termination, TerminationReason::Deadlock);
    EXPECT_NE(res.diagnostic.find("parked-device"), std::string::npos)
        << res.diagnostic;
    // The scheduler never busy-ticked the parked device while the
    // watchdog counted down: one initial tick, one final syncAll
    // back-fill tick, nothing in between.
    EXPECT_LE(dev.ticks(), 2u);
}

TEST(Watchdog, ThrashingDeviceTripsLivelock)
{
    System sys(tinyConfig());
    ThrashingDevice dev(sys.mem());
    sys.addDevice(&dev);
    const SimResult res = sys.run(/*maxCycles=*/10'000'000);

    EXPECT_FALSE(res.completed());
    EXPECT_EQ(res.termination, TerminationReason::Livelock);
    EXPECT_NE(res.diagnostic.find("livelock"), std::string::npos)
        << res.diagnostic;
}

TEST(Watchdog, ProgressPostponesTheTrip)
{
    SystemConfig cfg = tinyConfig();
    System sys(cfg);
    // Healthy for 3 windows, then stuck: must still trip, but only
    // after the healthy phase.
    EventuallyStuckDevice dev(3 * cfg.watchdogCycles);
    sys.addDevice(&dev);
    const SimResult res = sys.run(/*maxCycles=*/10'000'000);

    EXPECT_EQ(res.termination, TerminationReason::Deadlock);
    EXPECT_GE(res.cycles, 0u); // res.cycles tracks core cycles
}

TEST(Watchdog, DisabledFallsBackToCycleCap)
{
    SystemConfig cfg = tinyConfig();
    cfg.watchdogCycles = 0; // disabled
    System sys(cfg);
    StuckDevice dev;
    sys.addDevice(&dev);
    const SimResult res = sys.run(/*maxCycles=*/100'000);

    EXPECT_FALSE(res.completed());
    EXPECT_EQ(res.termination, TerminationReason::CycleCap);
    EXPECT_NE(res.diagnostic.find("cycle-cap"), std::string::npos)
        << res.diagnostic;
}

TEST(Watchdog, TerminationNames)
{
    EXPECT_STREQ(terminationName(TerminationReason::Completed),
                 "completed");
    EXPECT_STREQ(terminationName(TerminationReason::CycleCap),
                 "cycle-cap");
    EXPECT_STREQ(terminationName(TerminationReason::Deadlock),
                 "deadlock");
    EXPECT_STREQ(terminationName(TerminationReason::Livelock),
                 "livelock");
    EXPECT_STREQ(terminationName(TerminationReason::DeadlineExceeded),
                 "deadline-exceeded");
    EXPECT_STREQ(
        terminationName(TerminationReason::CycleBudgetExceeded),
        "cycle-budget-exceeded");
    EXPECT_STREQ(terminationName(TerminationReason::MemBudgetExceeded),
                 "mem-budget-exceeded");
}

TEST(ProgressWatchdogUnit, SampleSemantics)
{
    ProgressWatchdog wd(1000);
    ASSERT_TRUE(wd.enabled());
    EXPECT_EQ(wd.window(), 1000u);

    // Progress advancing: never trips.
    EXPECT_EQ(wd.sample(100, 1, 0), TerminationReason::Completed);
    EXPECT_EQ(wd.sample(2000, 2, 0), TerminationReason::Completed);

    // Stalls shorter than the window: no trip.
    EXPECT_EQ(wd.sample(2900, 2, 0), TerminationReason::Completed);

    // Full window without progress and without activity: deadlock.
    EXPECT_EQ(wd.sample(3100, 2, 0), TerminationReason::Deadlock);
}

TEST(ProgressWatchdogUnit, ActivityClassifiesLivelock)
{
    ProgressWatchdog wd(1000);
    EXPECT_EQ(wd.sample(100, 5, 10), TerminationReason::Completed);
    // No progress, but memory activity keeps changing: livelock.
    EXPECT_EQ(wd.sample(600, 5, 20), TerminationReason::Completed);
    EXPECT_EQ(wd.sample(1200, 5, 30), TerminationReason::Livelock);
}

TEST(ProgressWatchdogUnit, DisabledNeverTrips)
{
    ProgressWatchdog wd(0);
    EXPECT_FALSE(wd.enabled());
    for (Cycle c = 1; c < 100'000; c += 1000)
        EXPECT_EQ(wd.sample(c, 0, 0), TerminationReason::Completed);
}

// ---------------------------------------------------------------------
// System::run budget enforcement
// ---------------------------------------------------------------------

namespace {

SystemConfig
budgetConfig(bool dense)
{
    SystemConfig cfg;
    cfg.cores = 1;
    cfg.schedDense = dense;
    return cfg;
}

/** Busy forever, but always making progress: no watchdog trip. */
class BusyDevice : public Tickable
{
  public:
    bool
    tick(Cycle) override
    {
        ++progress_;
        return true;
    }
    std::uint64_t progressCount() const override { return progress_; }

  private:
    std::uint64_t progress_ = 0;
};

} // namespace

class BudgetBothScheds : public ::testing::TestWithParam<bool>
{
};

INSTANTIATE_TEST_SUITE_P(SchedModes, BudgetBothScheds,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "dense" : "event";
                         });

TEST_P(BudgetBothScheds, CycleBudgetTripsBeforeCap)
{
    SystemConfig cfg = budgetConfig(GetParam());
    cfg.cycleBudget = 5'000;
    System sys(cfg);
    BusyDevice dev;
    sys.addDevice(&dev);
    const SimResult res = sys.run(/*maxCycles=*/10'000'000);
    EXPECT_FALSE(res.completed());
    EXPECT_EQ(res.termination, TerminationReason::CycleBudgetExceeded);
    EXPECT_NE(res.diagnostic.find("cycle-budget-exceeded"),
              std::string::npos)
        << res.diagnostic;
}

TEST_P(BudgetBothScheds, CycleBudgetTieWinsTheName)
{
    // budget == cap: the explicit budget names the trip, not the
    // implicit safety cap.
    SystemConfig cfg = budgetConfig(GetParam());
    cfg.cycleBudget = 5'000;
    System sys(cfg);
    BusyDevice dev;
    sys.addDevice(&dev);
    const SimResult res = sys.run(/*maxCycles=*/5'000);
    EXPECT_EQ(res.termination, TerminationReason::CycleBudgetExceeded);
}

TEST_P(BudgetBothScheds, CycleBudgetAboveCapFallsBackToCycleCap)
{
    SystemConfig cfg = budgetConfig(GetParam());
    cfg.cycleBudget = 50'000;
    System sys(cfg);
    BusyDevice dev;
    sys.addDevice(&dev);
    const SimResult res = sys.run(/*maxCycles=*/5'000);
    EXPECT_EQ(res.termination, TerminationReason::CycleCap);
}

TEST_P(BudgetBothScheds, DeadlineTripsOnTheHostClock)
{
    SystemConfig cfg = budgetConfig(GetParam());
    cfg.deadlineMs = 10;
    System sys(cfg);
    BusyDevice dev;
    sys.addDevice(&dev);
    // Injected clock: 0 at run entry, then far past the deadline.
    std::uint64_t calls = 0;
    sys.setMsClockForTest(
        [&calls]() -> std::uint64_t { return calls++ == 0 ? 0 : 50; });
    const SimResult res = sys.run(/*maxCycles=*/10'000'000);
    EXPECT_EQ(res.termination, TerminationReason::DeadlineExceeded);
    EXPECT_NE(res.diagnostic.find("deadline-exceeded"),
              std::string::npos)
        << res.diagnostic;
    // Tripped at the first poll boundary, not the cycle cap.
    EXPECT_LT(res.cycles, 100'000u);
}

TEST_P(BudgetBothScheds, DeadlockBeatsDeadlineInTheSameInterval)
{
    // A stuck device with the watchdog window equal to one poll
    // interval: the watchdog trips at the second poll. The injected
    // clock stays under the deadline for exactly the clock reads that
    // happen before that poll (run entry + first poll's deadline
    // check) and would report the deadline blown from then on. The
    // watchdog is sampled before the budget checks, so the run must
    // still be classified Deadlock — a diagnosable hang, not a
    // host-resource trip.
    SystemConfig cfg = budgetConfig(GetParam());
    cfg.watchdogCycles = 1'024; // == the poll interval
    cfg.deadlineMs = 1;
    System sys(cfg);
    StuckDevice dev;
    sys.addDevice(&dev);
    std::uint64_t calls = 0;
    sys.setMsClockForTest([&calls]() -> std::uint64_t {
        return calls++ < 2 ? 0 : 1'000'000;
    });
    const SimResult res = sys.run(/*maxCycles=*/10'000'000);
    EXPECT_EQ(res.termination, TerminationReason::Deadlock)
        << res.diagnostic;
}

TEST_P(BudgetBothScheds, DeadlineWinsWhenTheWatchdogIsPatient)
{
    // Same stuck device, but the watchdog window is far longer than
    // the deadline: the deadline trip fires first.
    SystemConfig cfg = budgetConfig(GetParam());
    cfg.watchdogCycles = 100'000'000;
    cfg.deadlineMs = 10;
    System sys(cfg);
    StuckDevice dev;
    sys.addDevice(&dev);
    std::uint64_t calls = 0;
    sys.setMsClockForTest(
        [&calls]() -> std::uint64_t { return calls++ == 0 ? 0 : 50; });
    const SimResult res = sys.run(/*maxCycles=*/10'000'000);
    EXPECT_EQ(res.termination, TerminationReason::DeadlineExceeded);
}

TEST_P(BudgetBothScheds, MemBudgetTripsWhenResidentSetExceedsIt)
{
    if (hostResidentBytes() == 0)
        GTEST_SKIP() << "no resident-set probe on this host";
    SystemConfig cfg = budgetConfig(GetParam());
    cfg.memBudgetBytes = 1; // any real process is over this
    System sys(cfg);
    StuckDevice dev;
    sys.addDevice(&dev);
    const SimResult res = sys.run(/*maxCycles=*/10'000'000);
    EXPECT_EQ(res.termination, TerminationReason::MemBudgetExceeded);
    EXPECT_NE(res.diagnostic.find("mem-budget-exceeded"),
              std::string::npos)
        << res.diagnostic;
}

TEST_P(BudgetBothScheds, GenerousBudgetsDoNotPerturbACleanRun)
{
    SystemConfig cfg = budgetConfig(GetParam());
    cfg.deadlineMs = 1'000'000;
    cfg.cycleBudget = 1'000'000'000;
    cfg.memBudgetBytes = std::uint64_t{1} << 40; // 1 TiB
    System sys(cfg);
    const SimResult res = sys.run();
    EXPECT_TRUE(res.completed());
    EXPECT_EQ(res.termination, TerminationReason::Completed);
}

// ---------------------------------------------------------------------
// Host probes
// ---------------------------------------------------------------------

TEST(HostProbes, MonotonicClockAdvancesOrAtLeastHolds)
{
    const std::uint64_t a = hostMonotonicMs();
    const std::uint64_t b = hostMonotonicMs();
    EXPECT_GE(b, a);
}

TEST(HostProbes, ResidentBytesIsPlausibleWhenAvailable)
{
    const std::uint64_t rss = hostResidentBytes();
    if (rss == 0)
        GTEST_SKIP() << "no resident-set probe on this host";
    // A gtest binary is at least 1 MiB and under 1 TiB resident.
    EXPECT_GT(rss, std::uint64_t{1} << 20);
    EXPECT_LT(rss, std::uint64_t{1} << 40);
}
