/**
 * @file
 * Traced replay of one (workload, input) cell.
 *
 * Workload::prepare/run are opaque: they time as one span each. The
 * replay redoes the same work through the layers' public calls, in the
 * same order, so each call can carry its own span:
 *
 *   prepare  tensor.generate (MatrixInput/TensorInput::generate),
 *            tensor.convert (format converters), kernels.ref (*Ref);
 *   run      sim.system (System construction), frontend.compile,
 *            plan.lower_program, plan.init_state, plan.bind_handlers,
 *            sim.run (System::run), stats.snapshot (buildSimRegistry
 *            plus the snapshot), workloads.verify;
 *   after    plan.trace: a standalone drain of each core's lowerTrace
 *            coroutine (baseline mode; inside sim.run the trace is
 *            generated lazily and cannot be timed apart).
 *
 * A replay must reproduce the workload's simulated cycles exactly; the
 * benchmark checks that against an untraced Workload::run of the same
 * cell. Simulated addresses are assigned in first-touch order, so the
 * replay keeps the workload's order of buffer reservations and calls.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/statreg.hpp"
#include "common/types.hpp"
#include "sim/system.hpp"
#include "spans.hpp"
#include "workloads/workload.hpp"

namespace hostbench {

/** One replayed simulation run. */
struct ReplayRun
{
    tmu::sim::SimResult sim;
    tmu::stats::StatSnapshot stats;
    bool verified = false;
    std::uint64_t traceUops = 0; //!< µops drained by plan.trace
};

/** Replay of one (workload, input) cell. */
class ReplayCell
{
  public:
    virtual ~ReplayCell() = default;

    /** Replay Workload::prepare (the caller opens its parent span). */
    virtual void prepare(SpanRecorder &rec, tmu::Index scaleDiv) = 0;

    /**
     * Replay Workload::run inside span "workloads.run.<mode>"; in
     * baseline mode a top-level "plan.trace" drain follows.
     */
    virtual ReplayRun run(SpanRecorder &rec,
                          const tmu::workloads::RunConfig &cfg) = 0;

    /** Nonzeros of the generated input tensors. */
    virtual std::uint64_t inputNnz() const = 0;
};

/**
 * Replay for @p workload on @p input, or nullptr when the workload has
 * no public replay path (SpTC's hand-written program and handlers).
 */
std::unique_ptr<ReplayCell> makeReplayCell(const std::string &workload,
                                           const std::string &input);

} // namespace hostbench
