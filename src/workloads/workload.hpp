/**
 * @file
 * Workload abstraction: one evaluated kernel/application bound to both
 * execution paths of the study —
 *   Baseline: SVE-style traced software on the simulated cores;
 *   Tmu:      per-core TMU engines marshaling into the cores.
 * Every run checks its outputs against the reference kernel through
 * the one verifier below, so each data point in the benches is a
 * verified computation.
 */

#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/statreg.hpp"
#include "common/tracewriter.hpp"
#include "plan/lower.hpp"
#include "sim/config.hpp"
#include "sim/system.hpp"
#include "tensor/csr.hpp"
#include "tmu/engine.hpp"
#include "tmu/outq.hpp"
#include "workloads/partition.hpp"

namespace tmu::workloads {

/** Execution path selector. */
enum class Mode {
    Baseline, //!< traced software kernels on the cores
    Tmu,      //!< per-core TMU engines + callback compute
};

/** One simulation run's knobs. */
struct RunConfig
{
    sim::SystemConfig system = sim::SystemConfig::neoverseN1();
    engine::EngineConfig tmu; //!< engine knobs (Tmu mode)
    Mode mode = Mode::Baseline;
    /**
     * Lanes the TMU *programs* parallelize over. Tied to the SVE width
     * (simdBits/64) in the default evaluation; set to 1 for the
     * Fig. 15 Single-Lane comparator.
     */
    int programLanes = 8;

    /**
     * Work-distribution strategy over the cores (see partition.hpp).
     * Rows reproduces the historical equal-span split exactly.
     */
    PartitionKind partition = PartitionKind::Rows;

    /**
     * Optional timeline tracer (borrowed; must outlive the run). Cores
     * and engines record into it as threads of process @c tracePid.
     */
    stats::TraceWriter *trace = nullptr;
    int tracePid = 1;

    /**
     * Optional fault injector (borrowed; must outlive the run). Wired
     * into the memory system and every TMU engine; its counters are
     * registered under "faults." in the RunResult stats snapshot.
     */
    sim::FaultInjector *faults = nullptr;

    /**
     * Optional interval telemetry sampler (borrowed; must outlive the
     * run). The harness registers the standard column set — per-bucket
     * cycle attribution, retired ops, DRAM traffic, and per-engine
     * outQ occupancy / phase cycles — and System::run clocks it every
     * sampler interval. With @c trace set, samples also land as
     * Perfetto counter tracks.
     */
    sim::TelemetrySampler *telemetry = nullptr;
};

/** One run's outcome. */
struct RunResult
{
    sim::SimResult sim;
    bool verified = false;   //!< outputs matched the reference kernel
    /** First verification mismatch (core, row, column); "" if none. */
    std::string mismatch;
    double rwRatio = 0.0;    //!< avg outQ read-to-write ratio (Tmu)
    std::uint64_t tmuRequests = 0;
    std::uint64_t tmuElements = 0;
    /**
     * Detached snapshot of the full (extended) stat registry — sim,
     * memory system and any TMU engines — taken before the harness is
     * destroyed, so callers can export JSON/CSV after the run.
     */
    stats::StatSnapshot stats;
};

/** Base class: prepare inputs once, run either path many times. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short name, e.g. "SpMV". */
    virtual std::string name() const = 0;

    /** Workload class for the Fig. 10 grouping. */
    enum class Class { MemoryIntensive, ComputeIntensive,
                       MergeIntensive };
    virtual Class workloadClass() const = 0;

    /**
     * Generate inputs for @p inputId ("M1".."M6" / "T1".."T4") at
     * 1/scaleDiv of the published size and compute the reference
     * outputs used for verification.
     */
    virtual void prepare(const std::string &inputId, Index scaleDiv) = 0;

    /** Execute one simulation run. */
    virtual RunResult run(const RunConfig &cfg) = 0;

    /** Valid input ids for this workload. */
    virtual std::vector<std::string> inputs() const = 0;
};

/**
 * How far a run's values may stray from its reference: the verifier's
 * policy table (workload.cpp, docs/TESTING.md "Run verification")
 * maps each class to one tensor::Compare bound.
 */
enum class Tolerance {
    Exact,     //!< both paths reduce in the reference's order
    Reordered, //!< per-core private accumulators reorder a sum
    Solve,     //!< solves on reordered sums (CP-ALS factors)
};

/*
 * The run verifier. Each entry point reads the run's collectors in
 * place, stops at the first mismatch and records the verdict on @p res:
 * RunResult::verified, and a diagnostic naming core, row and column in
 * RunResult::mismatch. Each returns the verdict.
 */

/**
 * Row-partitioned sparse output. Core c's collectors out[c] hold the
 * rows part.range(c), in order: idxs/vals per element, and the row of
 * each element either as one rowNnz count per row of the span or, when
 * rowNnz is empty, as KWayMerge's per-element rows coordinate.
 */
bool verifySparse(RunResult &res, const Partition &part,
                  const std::vector<plan::PlanState> &out,
                  const tensor::CsrMatrix &ref, Tolerance tol);

/**
 * Dense row-major rows x cols output: @p ref against the elementwise
 * sum of @p parts — the one shared output, or each core's private
 * accumulator summed in core order.
 */
bool verifyDense(RunResult &res, const Value *ref, Index rows,
                 Index cols, const std::vector<const Value *> &parts,
                 Tolerance tol);

/**
 * Exact integer outputs of core @p core (-1: the whole run): got[k]
 * against want[k], reported as row firstRow + k.
 */
bool verifyCounts(RunResult &res, int core, Index firstRow,
                  std::span<const Index> got, std::span<const Index> want);

/**
 * Reserve @p st's collectors to the exact size of core's reference rows
 * [beg, end) of @p ref — per-element @p rows coordinates or one rowNnz
 * count per row — so they never reallocate mid-run: their addresses
 * enter the timing stream, and stable bases keep the canonical address
 * layout reproducible (see sim/addrspace.hpp).
 */
void reserveOutput(plan::PlanState &st, const tensor::CsrMatrix &ref,
                   Index beg, Index end, bool rows = false);

/**
 * Merge a phase's stat snapshot into a multi-phase aggregate: U64
 * counters sum by name (unseen names append in phase order), F64
 * entries are dropped — they are derived ratios (hit rates, GB/s)
 * that do not aggregate across phases. Keeps the per-unit cycle
 * attribution sum invariant intact for multi-phase workloads like
 * CP-ALS whose RunResult spans several simulations.
 */
void mergeCounterSnapshots(stats::StatSnapshot &into,
                           const stats::StatSnapshot &phase);

/**
 * Shared run plumbing: owns the per-core sources/engines for one
 * simulation and produces the RunResult scaffold.
 */
class RunHarness
{
  public:
    explicit RunHarness(const RunConfig &cfg);

    sim::System &system() { return *system_; }
    int cores() const { return cfg_.system.cores; }
    const RunConfig &config() const { return cfg_; }
    sim::SimdConfig simd() const
    {
        return sim::SimdConfig{cfg_.system.simdBits};
    }

    /**
     * Record the run's work distribution so finish() can register the
     * cores.balance.{nnzAssigned,rowsAssigned,imbalanceRatio} stats
     * (aggregate plus per-core). Optional: runs that never split work
     * (single-phase dense loops) simply skip the stat family.
     */
    void setPartition(const Partition &part) { partition_ = part; }

    /**
     * Build this run's partition from RunConfig::partition and record
     * it for the balance stats in one step.
     */
    Partition makeRunPartition(Index total, const Index *prefix)
    {
        setPartition(makePartition(cfg_.partition, total, prefix,
                                   cfg_.system.cores));
        return partition_;
    }

    /**
     * Attach core @p c's slice of a plan on the run's path: Baseline
     * lowers the trace with @p st's idxs/vals/rowNnz/count as sinks
     * (kinds that emit none ignore them); Tmu lowers the program and
     * binds its handlers to @p st. @p st must outlive the run.
     */
    void addPlan(int c, const plan::PlanSpec &spec, plan::PlanState &st);

    /** Attach a baseline trace to core @p c. */
    void addBaselineTrace(int c, sim::Trace trace);

    /**
     * Attach a TMU program + outQ source to core @p c. Throws
     * std::runtime_error, failing only this run, when a layer needs
     * more lanes than the engine has.
     */
    engine::OutqSource &addTmuProgram(int c,
                                      const engine::TmuProgram &prog);

    /** Run to completion and collect engine-side stats. */
    RunResult finish();

  private:
    RunConfig cfg_;
    Partition partition_; //!< empty bounds until setPartition()
    std::unique_ptr<sim::System> system_;
    std::vector<std::unique_ptr<sim::CoroutineSource>> traces_;
    std::vector<std::unique_ptr<engine::TmuEngine>> engines_;
    std::vector<std::unique_ptr<engine::OutqSource>> outqs_;
};

} // namespace tmu::workloads
