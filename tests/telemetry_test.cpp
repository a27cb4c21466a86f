/**
 * @file
 * Interval telemetry sampler: columnar snapshots of live counters at
 * a fixed cycle period, plus the edge cases the scheduler integration
 * must get right — an interval longer than the run still yields the
 * final row, zero-row runs don't crash the exporters, sampling is
 * identical between the event-driven scheduler and the dense
 * reference, and attaching a sampler never perturbs simulated stats
 * (only sim.scheduler.* bookkeeping may move, from the forced syncAll
 * ticks at sample boundaries).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "sim/telemetry.hpp"
#include "tensor/generate.hpp"
#include "workloads/wl_spmv.hpp"
#include "workloads/workload.hpp"

namespace tmu {
namespace {

using tensor::CsrMatrix;
using tensor::DenseVector;

struct SpmvRun
{
    CsrMatrix a;
    DenseVector b;
    DenseVector x;

    SpmvRun()
        : a(tensor::randomCsr(
              {.rows = 96, .cols = 96, .nnzPerRow = 6.0, .seed = 7})),
          b(96, 1.0), x(96)
    {
    }

    Cycle endTime = 0; //!< System::now() after the last run

    /** Baseline SpMV on 2 cores; returns the run's stats snapshot. */
    workloads::RunResult
    run(sim::TelemetrySampler *telemetry, bool dense)
    {
        x.fill(0.0);
        workloads::RunConfig cfg;
        cfg.mode = workloads::Mode::Baseline;
        cfg.system.cores = 2;
        cfg.system.schedDense = dense;
        cfg.telemetry = telemetry;
        workloads::RunHarness h(cfg);
        for (int c = 0; c < 2; ++c) {
            const auto [beg, end] =
                workloads::makePartition(workloads::PartitionKind::Rows,
                                         a.rows(), nullptr, 2)
                    .range(c);
            plan::frontend::EinsumBindings fb;
            fb.csr["A"] = &a;
            fb.vec["B"] = &b;
            fb.outVec = &x;
            plan::frontend::CompileOptions fo;
            fo.beg = beg;
            fo.end = end;
            h.addBaselineTrace(
                c, plan::lowerTrace(
                       plan::frontend::compileEinsum(
                           workloads::SpmvWorkload::kEinsum, fb, fo)
                           .valueOrFatal(),
                       {}, h.simd()));
        }
        workloads::RunResult res = h.finish();
        endTime = h.system().now();
        return res;
    }
};

TEST(Telemetry, SamplesLandOnIntervalBoundaries)
{
    SpmvRun w;
    sim::TelemetrySampler t(/*interval=*/64);
    const workloads::RunResult res = w.run(&t, /*dense=*/false);

    ASSERT_GE(t.rows(), 2u);
    const std::vector<Cycle> &cycles = t.cycles();
    // Every row except the final flush sits on an interval boundary;
    // cycles are strictly increasing and end at the run's last cycle.
    for (std::size_t i = 0; i + 1 < cycles.size(); ++i) {
        EXPECT_EQ(cycles[i] % 64, 0u) << "row " << i;
        EXPECT_LT(cycles[i], cycles[i + 1]);
    }
    // The final row lands at the scheduler's end-of-run time, which
    // may trail the charged cycle count by a final no-op dispatch.
    EXPECT_EQ(cycles.back(), w.endTime);
    EXPECT_GE(cycles.back(), res.sim.cycles);

    // Columns are rectangular and cumulative counters never decrease.
    for (const sim::TelemetrySampler::Column &col : t.columns()) {
        ASSERT_EQ(col.values.size(), cycles.size()) << col.name;
        if (col.name == "cores.cycles" ||
            col.name == "dram.readBytes") {
            for (std::size_t i = 0; i + 1 < col.values.size(); ++i)
                EXPECT_LE(col.values[i], col.values[i + 1])
                    << col.name << " row " << i;
        }
    }
}

TEST(Telemetry, IntervalLongerThanRunYieldsFinalRow)
{
    SpmvRun w;
    sim::TelemetrySampler t(/*interval=*/1u << 30);
    const workloads::RunResult res = w.run(&t, /*dense=*/false);
    ASSERT_EQ(t.rows(), 1u);
    EXPECT_EQ(t.cycles().front(), w.endTime);
    EXPECT_GE(t.cycles().front(), res.sim.cycles);
}

TEST(Telemetry, ZeroCycleRunYieldsSingleRow)
{
    // No sources attached: the system terminates immediately. The
    // sampler must still flush exactly one (possibly cycle-0) row so
    // exporters never see a zero-row column set.
    sim::TelemetrySampler t(/*interval=*/16);
    workloads::RunConfig cfg;
    cfg.mode = workloads::Mode::Baseline;
    cfg.system.cores = 1;
    cfg.telemetry = &t;
    workloads::RunHarness h(cfg);
    const workloads::RunResult res = h.finish();
    EXPECT_EQ(res.sim.cycles, 0u);
    ASSERT_EQ(t.rows(), 1u);
    EXPECT_EQ(t.cycles().front(), h.system().now());
}

TEST(Telemetry, IntervalClampsToOne)
{
    sim::TelemetrySampler t(/*interval=*/0);
    EXPECT_EQ(t.interval(), 1u);
}

TEST(Telemetry, EventAndDenseSchedulersSampleIdentically)
{
    SpmvRun w;
    sim::TelemetrySampler event(/*interval=*/128);
    w.run(&event, /*dense=*/false);
    sim::TelemetrySampler dense(/*interval=*/128);
    w.run(&dense, /*dense=*/true);

    ASSERT_EQ(event.rows(), dense.rows());
    EXPECT_EQ(event.cycles(), dense.cycles());
    ASSERT_EQ(event.columns().size(), dense.columns().size());
    for (std::size_t c = 0; c < event.columns().size(); ++c) {
        const auto &ec = event.columns()[c];
        const auto &dc = dense.columns()[c];
        EXPECT_EQ(ec.name, dc.name);
        EXPECT_EQ(ec.values, dc.values) << ec.name;
    }
}

TEST(Telemetry, SamplingDoesNotPerturbSimulatedStats)
{
    SpmvRun w;
    const workloads::RunResult plain = w.run(nullptr, false);
    sim::TelemetrySampler t(/*interval=*/32);
    const workloads::RunResult sampled = w.run(&t, false);

    EXPECT_EQ(plain.sim.cycles, sampled.sim.cycles);
    ASSERT_EQ(plain.stats.entries.size(), sampled.stats.entries.size());
    for (std::size_t i = 0; i < plain.stats.entries.size(); ++i) {
        const stats::SnapshotEntry &pe = plain.stats.entries[i];
        const stats::SnapshotEntry &se = sampled.stats.entries[i];
        ASSERT_EQ(pe.name, se.name);
        // The forced syncAll ticks at sample boundaries are no-ops for
        // the simulated machine but do count as dispatched events.
        if (pe.name.rfind("sim.scheduler.", 0) == 0)
            continue;
        EXPECT_EQ(pe.u, se.u) << pe.name;
        EXPECT_EQ(pe.f, se.f) << pe.name;
    }
}

TEST(Telemetry, SameCycleSamplesDeduplicate)
{
    sim::TelemetrySampler t(/*interval=*/8);
    std::uint64_t n = 3;
    t.addColumn("n", "count", [&n] {
        return static_cast<double>(n);
    });
    t.sample(8);
    n = 99; // a second sample on the same cycle must be dropped
    t.sample(8);
    t.sample(16);
    ASSERT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns().front().values.front(), 3.0);
    EXPECT_EQ(t.columns().front().values.back(), 99.0);
}

} // namespace
} // namespace tmu
