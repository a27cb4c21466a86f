#include "wl_tensor.hpp"

#include "common/log.hpp"
#include "common/rng.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/smallsolve.hpp"
#include "kernels/sptc.hpp"
#include "plan/frontend/frontend.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tensor/suite.hpp"
#include "tmu/outq.hpp"
#include "workloads/programs.hpp"

namespace tmu::workloads {

using engine::OutqRecord;
using kernels::CpFactors;
using sim::MicroOp;
using sim::addrOf;
using tensor::CooTensor;
using tensor::DenseMatrix;

namespace {

/**
 * Accumulate one phase's SimResult into a whole-run aggregate. A phase
 * that did not complete hands the aggregate its termination and
 * diagnostic; the caller stops there.
 */
void
accumulate(sim::SimResult &into, const sim::SimResult &phase)
{
    if (!phase.completed()) {
        into.termination = phase.termination;
        into.diagnostic = phase.diagnostic;
    }
    into.sched.eventsDispatched += phase.sched.eventsDispatched;
    into.sched.wakeups += phase.sched.wakeups;
    into.sched.idleCyclesSkipped += phase.sched.idleCyclesSkipped;
    into.cycles += phase.cycles;
    into.total.cycles += phase.total.cycles;
    into.total.commitCycles += phase.total.commitCycles;
    into.total.frontendStallCycles += phase.total.frontendStallCycles;
    into.total.backendStallCycles += phase.total.backendStallCycles;
    into.total.supplyWaitCycles += phase.total.supplyWaitCycles;
    into.total.retiredOps += phase.total.retiredOps;
    into.total.loads += phase.total.loads;
    into.total.stores += phase.total.stores;
    into.total.flops += phase.total.flops;
    into.total.branches += phase.total.branches;
    into.total.mispredicts += phase.total.mispredicts;
    into.total.loadLatencySum += phase.total.loadLatencySum;
    into.dram.readBytes += phase.dram.readBytes;
    into.dram.writeBytes += phase.dram.writeBytes;
    into.dram.accesses += phase.dram.accesses;
    into.dram.rowHits += phase.dram.rowHits;

    // Recompute the rate summaries over the combined phases.
    if (into.cycles > 0) {
        const double seconds = static_cast<double>(into.cycles) /
                               (sim::SystemConfig{}.mem.coreGHz * 1e9);
        into.gflops =
            static_cast<double>(into.total.flops) / seconds / 1e9;
        into.achievedGBs =
            (static_cast<double>(into.dram.readBytes) +
             static_cast<double>(into.dram.writeBytes)) /
            seconds / 1e9;
    }
}

/** Merge a phase RunResult into the aggregate. */
void
accumulateRun(RunResult &into, const RunResult &phase)
{
    accumulate(into.sim, phase.sim);
    mergeCounterSnapshots(into.stats, phase.stats);
    into.tmuRequests += phase.tmuRequests;
    into.tmuElements += phase.tmuElements;
    if (phase.rwRatio > 0.0) {
        into.rwRatio = into.rwRatio > 0.0
                           ? 0.5 * (into.rwRatio + phase.rwRatio)
                           : phase.rwRatio;
    }
}

/**
 * One MTTKRP execution over [0, t.nnz()) split across cores; each core
 * accumulates into its own z copy (GenTen-style private accumulators).
 */
RunResult
runMttkrpOnce(const RunConfig &cfg, const CooTensor &t,
              const DenseMatrix &b, const DenseMatrix &c,
              std::vector<DenseMatrix> &zPerCore, bool p1)
{
    RunHarness h(cfg);
    const int cores = h.cores();
    TMU_ASSERT(static_cast<int>(zPerCore.size()) == cores);

    std::vector<plan::PlanState> st(static_cast<size_t>(cores));

    // COO element spans are already element-balanced; the strategies
    // that weight by prefix sums degrade to the same equal split.
    const Partition part = h.makeRunPartition(t.nnz(), nullptr);
    for (int core = 0; core < cores; ++core) {
        const auto [beg, end] = part.range(core);
        DenseMatrix &z = zPerCore[static_cast<size_t>(core)];
        plan::frontend::EinsumBindings fb;
        fb.coo["A"] = &t;
        fb.mat["B"] = &b;
        fb.mat["C"] = &c;
        fb.outMat = &z;
        plan::frontend::CompileOptions fo;
        fo.lanes = cfg.programLanes;
        fo.beg = beg;
        fo.end = end;
        fo.variant = p1 ? plan::Variant::P1 : plan::Variant::P2;
        h.addPlan(core,
                  plan::frontend::compileEinsum(
                      "Z(i,j) = A(i,k,l; coo) * B(k,j; dense) * "
                      "C(l,j; dense)",
                      fb, fo)
                      .valueOrFatal(),
                  st[static_cast<size_t>(core)]);
    }
    return h.finish();
}

std::vector<DenseMatrix>
makeAccumulators(int cores, Index rows, Index rank)
{
    std::vector<DenseMatrix> z;
    z.reserve(static_cast<size_t>(cores));
    for (int c = 0; c < cores; ++c)
        z.emplace_back(rows, rank, 0.0);
    return z;
}

} // namespace

void
MttkrpWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    t_ = tensor::tensorInput(inputId).generate(scaleDiv);
    Rng rng(23);
    b_ = DenseMatrix(t_.dim(1), kRank);
    c_ = DenseMatrix(t_.dim(2), kRank);
    for (Index i = 0; i < b_.rows(); ++i)
        for (Index j = 0; j < kRank; ++j)
            b_(i, j) = rng.nextValue(0.1, 1.0);
    for (Index i = 0; i < c_.rows(); ++i)
        for (Index j = 0; j < kRank; ++j)
            c_(i, j) = rng.nextValue(0.1, 1.0);
    ref_ = kernels::mttkrpRef(t_, b_, c_, 0);
}

RunResult
MttkrpWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(t_.nnz() > 0, "prepare() was not called");
    auto z = makeAccumulators(cfg.system.cores, t_.dim(0), kRank);
    RunResult res = runMttkrpOnce(cfg, t_, b_, c_, z,
                                  variant_ == Variant::P1);
    std::vector<const Value *> parts;
    for (const DenseMatrix &zc : z)
        parts.push_back(zc.data());
    verifyDense(res, ref_.data(), ref_.rows(), ref_.cols(), parts,
                Tolerance::Reordered);
    return res;
}

void
SptcWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    // SpTC contracts the (k, l) modes; the merge-based hardware lookup
    // co-iterates A's l fibers against B's root level, so the
    // surrogate keeps the contracted-mode extents proportionally small
    // (as in Liu et al.'s evaluated contractions) while the output
    // modes carry the nnz. Scale harder than MTTKRP: the symbolic
    // phase visits every (A leaf x B subtree) pairing.
    const tensor::TensorInput &in = tensor::tensorInput(inputId);
    const Index nnz = std::max<Index>(2048, in.paperNnz / (scaleDiv * 8));
    const Index dimI = std::max<Index>(96, in.paperDims[0] / scaleDiv);
    const Index dimK = 24; // contracted
    const Index dimL = 48; // contracted
    const CooTensor ca = tensor::randomCooTensor(
        {dimI, dimK, dimL}, nnz, in.modeSkew,
        0xA11CE ^ static_cast<std::uint64_t>(inputId[1]));
    a_ = tensor::cooToCsf(ca);
    const CooTensor cb = tensor::randomCooTensor(
        {dimL, dimK, std::max<Index>(96, dimI / 2)}, nnz, 0.0, 0xB0B);
    b_ = tensor::cooToCsf(cb);
    ref_ = kernels::sptcSymbolicRowsRef(a_, b_);
}

RunResult
SptcWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(a_.nnz() > 0, "prepare() was not called");
    RunHarness h(cfg);
    const int cores = h.cores();
    const Index roots = a_.numNodes(0);

    struct CoreState
    {
        std::vector<std::uint8_t> seen;
        std::vector<Index> touched;
        std::vector<Index> counts;
    };
    std::vector<CoreState> st(static_cast<size_t>(cores));
    std::vector<std::vector<Index>> baseCounts(
        static_cast<size_t>(cores));

    // Weight root spans by their child counts (CSF level-0 pointers).
    const Partition part =
        h.makeRunPartition(roots, a_.ptrs(0).data());
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] = part.range(c);
        if (cfg.mode == Mode::Baseline) {
            auto &counts = baseCounts[static_cast<size_t>(c)];
            counts.assign(static_cast<size_t>(roots), 0);
            h.addBaselineTrace(
                c, kernels::traceSptcSymbolic(a_, b_, counts, beg, end,
                                              h.simd()));
            continue;
        }
        auto &src =
            h.addTmuProgram(c, buildSptcSymbolic(a_, b_, beg, end));
        CoreState &s = st[static_cast<size_t>(c)];
        s.seen.assign(static_cast<size_t>(b_.dim(2)), 0);

        src.setHandler(kCbRoot, [&s](const OutqRecord &,
                                     std::vector<MicroOp> &ops) {
            ops.push_back(MicroOp::iop());
        });
        src.setHandler(kCbJCoord, [&s](const OutqRecord &rec,
                                       std::vector<MicroOp> &ops) {
            const auto j = static_cast<size_t>(rec.i64(0, 0));
            // Bitmap membership update on the core.
            ops.push_back(MicroOp::load(
                sim::addrOf(s.seen.data(), static_cast<Index>(j)), 1));
            if (!s.seen[j]) {
                s.seen[j] = 1;
                s.touched.push_back(static_cast<Index>(j));
                ops.push_back(MicroOp::store(
                    sim::addrOf(s.seen.data(), static_cast<Index>(j)), 1));
            }
            ops.push_back(MicroOp::iop());
        });
        src.setHandler(kCbRootEnd, [&s](const OutqRecord &,
                                        std::vector<MicroOp> &ops) {
            s.counts.push_back(static_cast<Index>(s.touched.size()));
            for (const Index j : s.touched) {
                s.seen[static_cast<size_t>(j)] = 0;
                ops.push_back(MicroOp::store(
                    sim::addrOf(s.seen.data(), static_cast<Index>(j)), 1));
            }
            s.touched.clear();
        });
    }

    RunResult res = h.finish();
    const std::span<const Index> want(ref_);
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] = part.range(c);
        const auto first = static_cast<size_t>(beg);
        const auto rows = static_cast<size_t>(end - beg);
        const auto sc = static_cast<size_t>(c);
        // Baseline counts are indexed by root, TMU counts by span row.
        const std::span<const Index> got =
            cfg.mode == Mode::Baseline
                ? std::span<const Index>(baseCounts[sc]).subspan(first, rows)
                : std::span<const Index>(st[sc].counts);
        if (!verifyCounts(res, c, beg, got, want.subspan(first, rows)))
            break;
    }
    return res;
}

void
CpalsWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    t_ = tensor::tensorInput(inputId).generate(scaleDiv * 2);
    cfg_.rank = 16;
    cfg_.iterations = 1;
    init_ = kernels::cpalsInit(t_, cfg_);
    ref_ = kernels::cpalsRef(t_, cfg_);
}

RunResult
CpalsWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(t_.nnz() > 0, "prepare() was not called");
    const Index rank = cfg_.rank;
    CpFactors f = init_;
    RunResult total;

    // One ALS sweep: per mode, an MTTKRP phase (simulated) plus the
    // dense gram/solve phase (simulated as compute on the cores; the
    // numeric update itself runs host-side, exactly).
    for (int mode = 0; mode < 3; ++mode) {
        const int m1 = mode == 0 ? 1 : 0;
        const int m2 = mode == 2 ? 1 : 2;

        // Re-sort the tensor so the output mode is mode 0 (the
        // Phipps-Kolda permutation optimization).
        CooTensor pt({t_.dim(mode), t_.dim(m1), t_.dim(m2)});
        for (Index p = 0; p < t_.nnz(); ++p) {
            pt.push({t_.idx(mode, p), t_.idx(m1, p), t_.idx(m2, p)},
                    t_.val(p));
        }
        pt.sortAndCombine();

        auto z = makeAccumulators(cfg.system.cores, t_.dim(mode), rank);
        accumulateRun(
            total,
            runMttkrpOnce(cfg, pt, f[static_cast<size_t>(m1)],
                          f[static_cast<size_t>(m2)], z, true));
        if (!total.sim.completed())
            return total;

        // Dense phase: gram + hadamard + Cholesky solves, partitioned
        // over the factor rows (always executed by the cores).
        {
            RunConfig denseCfg = cfg;
            denseCfg.mode = Mode::Baseline;
            RunHarness h(denseCfg);
            const Partition densePart =
                h.makeRunPartition(t_.dim(mode), nullptr);
            for (int c = 0; c < cfg.system.cores; ++c) {
                const auto [beg, end] = densePart.range(c);
                h.addBaselineTrace(
                    c, kernels::traceCpalsDense(rank, end - beg,
                                                h.simd()));
            }
            accumulateRun(total, h.finish());
            if (!total.sim.completed())
                return total;
        }

        // Exact numeric update of the factor.
        DenseMatrix m(t_.dim(mode), rank, 0.0);
        for (const auto &zc : z) {
            for (Index i = 0; i < m.rows(); ++i)
                for (Index j = 0; j < rank; ++j)
                    m(i, j) += zc(i, j);
        }
        DenseMatrix g = kernels::gramMatrix(f[static_cast<size_t>(m1)]);
        kernels::hadamardInPlace(
            g, kernels::gramMatrix(f[static_cast<size_t>(m2)]));
        kernels::choleskySolveRows(g, m);
        f[static_cast<size_t>(mode)] = std::move(m);
    }

    for (int mode = 0; mode < 3; ++mode) {
        const DenseMatrix &want = ref_[static_cast<size_t>(mode)];
        if (!verifyDense(total, want.data(), want.rows(), want.cols(),
                         {f[static_cast<size_t>(mode)].data()},
                         Tolerance::Solve)) {
            total.mismatch = detail::format("factor %d %s", mode,
                                            total.mismatch.c_str());
            break;
        }
    }
    return total;
}

} // namespace tmu::workloads
