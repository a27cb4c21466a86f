/**
 * @file
 * The three lowering passes over a PlanSpec (docs/PLAN_IR.md):
 *
 *   lowerReference — interpret the plan over the src/tensor iterators
 *                    and produce golden outputs (no simulation).
 *   lowerTrace     — emit the SVE micro-op trace of the baseline
 *                    software kernel.
 *   lowerProgram   — generate the engine::TmuProgram configuration by
 *                    a generic structural walk of the plan's layers.
 *   bindHandlers   — register the plan's callback-handler table on an
 *                    OutqSource (the TMU-mode compute bodies).
 *
 * One spec, four consumers: the workloads run trace/program+handlers,
 * the testing oracle cross-checks all legs against the *Ref reference
 * kernels, and bench/table4_mapping renders the program summaries.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "plan/ir.hpp"
#include "sim/microop.hpp"
#include "tmu/outq.hpp"
#include "tmu/program.hpp"

namespace tmu::plan {

/** Generic structural lowering of a plan to a TMU program. */
engine::TmuProgram lowerProgram(const PlanSpec &plan);

/**
 * Golden outputs of the plan's einsum over [plan.beg, plan.end).
 * RowReduce writes bind.out and CooRankFma accumulates into bind.z;
 * the sparse-output kinds return triplet collectors, Intersect returns
 * the hit count.
 */
struct ReferenceResult
{
    std::vector<Index> rows;   //!< KWayMerge: merged row coordinate
    std::vector<Index> idxs;   //!< column index per emitted element
    std::vector<Value> vals;   //!< value per emitted element
    std::vector<Index> rowNnz; //!< per-row element count
    std::uint64_t count = 0;   //!< Intersect: merge hits
};

ReferenceResult lowerReference(const PlanSpec &plan);

/** Output collectors for the trace lowering (sparse-output kinds). */
struct TraceSinks
{
    std::vector<Index> *idxs = nullptr;
    std::vector<Value> *vals = nullptr;
    std::vector<Index> *rowNnz = nullptr;
    std::uint64_t *count = nullptr; //!< Intersect
};

/**
 * Baseline-mode lowering: the micro-op trace of the software kernel.
 * Dense outputs go through the plan's bindings; sparse
 * collectors (and the triangle count) through @p io. The lowering
 * copies what it needs out of the plan up front, so only the bound
 * tensors and the sink buffers must outlive the coroutine.
 */
sim::Trace lowerTrace(const PlanSpec &plan, const TraceSinks &io,
                      sim::SimdConfig simd);

/**
 * Per-core mutable state the bound callback handlers operate on: the
 * union of what the plan's compute kinds need. Owned by the workload
 * (one per core) so collector addresses stay stable across the run.
 */
struct PlanState
{
    // RowReduce
    Index row = 0;
    Value sum = 0.0;
    // WorkspaceSpGEMM (+ shared sparse-output collectors)
    std::vector<Value> acc;
    std::vector<char> seen;
    std::vector<Index> touched;
    Value aVal = 0.0;
    std::vector<Index> idxs;
    std::vector<Value> vals;
    std::vector<Index> rowNnz;
    // KWayMerge
    std::vector<Index> rows;
    Index curRow = kInvalidIndex;
    // Intersect
    std::uint64_t count = 0;
    // CooRankFma
    Value v = 0.0;
    Addr zRow = 0;
    std::vector<Value> laneV;
    std::vector<Addr> laneZ;
    Index j = 0;
};

/**
 * Size the state's workspaces from the plan's bindings (RowReduce row
 * cursor, SpGEMM accumulator/bitmap). Collector reserves stay with the
 * caller, which knows the expected output size.
 */
void initPlanState(const PlanSpec &plan, PlanState &st);

/**
 * Register one handler per plan callback (dispatching on its
 * ComputeKind) under the plan-scoped callback ids. @p st must outlive
 * the source; tensors are captured from the plan's bindings by
 * pointer, so the plan itself need not outlive the handlers.
 */
void bindHandlers(const PlanSpec &plan, engine::OutqSource &src,
                  PlanState &st);

} // namespace tmu::plan
