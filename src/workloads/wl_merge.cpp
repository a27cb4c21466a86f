#include "wl_merge.hpp"

#include "common/log.hpp"
#include "kernels/spadd.hpp"
#include "plan/frontend/frontend.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tensor/suite.hpp"

namespace tmu::workloads {

namespace {

/** SpKAdd-shaped run over @p parts with reference @p ref. */
RunResult
runKAdd(const RunConfig &cfg,
        const std::vector<tensor::DcsrMatrix> &parts,
        const tensor::CsrMatrix &ref)
{
    RunHarness h(cfg);
    const int cores = h.cores();
    std::vector<plan::PlanState> out(static_cast<size_t>(cores));

    // Balance on the merged output's nnz structure (ref row pointers).
    const Partition part =
        h.makeRunPartition(ref.rows(), ref.ptrs().data());
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] = part.range(c);
        plan::frontend::EinsumBindings fb;
        fb.ensembles["A^k"] = &parts;
        plan::frontend::CompileOptions fo;
        fo.beg = beg;
        fo.end = end;
        const plan::PlanSpec ps =
            plan::frontend::compileEinsum(SpkaddWorkload::kEinsum, fb,
                                          fo)
                .valueOrFatal();
        // The TMU's lane reduce emits one row coordinate per element.
        plan::PlanState &st = out[static_cast<size_t>(c)];
        reserveOutput(st, ref, beg, end, cfg.mode == Mode::Tmu);
        h.addPlan(c, ps, st);
    }

    RunResult res = h.finish();
    verifySparse(res, part, out, ref, Tolerance::Exact);
    return res;
}

} // namespace

void
SpkaddWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    const tensor::CsrMatrix a =
        tensor::matrixInput(inputId).generate(scaleDiv);
    parts_ = tensor::splitCyclic(a, kInputs);
    ref_ = kernels::spkaddRef(parts_);
}

RunResult
SpkaddWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(!parts_.empty(), "prepare() was not called");
    return runKAdd(cfg, parts_, ref_);
}

void
SpaddWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    const auto &in = tensor::matrixInput(inputId);
    a_ = in.generate(scaleDiv);
    // A structurally-similar second operand from a different seed.
    tensor::CsrGenConfig gen;
    gen.rows = a_.rows();
    gen.cols = a_.cols();
    gen.nnzPerRow = std::max(1.0, a_.nnzPerRow());
    gen.seed = 0xABCD ^ static_cast<std::uint64_t>(inputId[1]);
    b_ = tensor::randomCsr(gen);
    asDcsr_ = {tensor::csrToDcsr(a_), tensor::csrToDcsr(b_)};
    ref_ = kernels::spaddRef(a_, b_);
}

RunResult
SpaddWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(a_.rows() > 0, "prepare() was not called");
    if (cfg.mode == Mode::Tmu)
        return runKAdd(cfg, asDcsr_, ref_);

    // Baseline SpAdd keeps the dedicated two-way merge kernel (the
    // legacy path): it is not plan-lowered.
    RunHarness h(cfg);
    const int cores = h.cores();
    std::vector<plan::PlanState> out(static_cast<size_t>(cores));
    const Partition part =
        h.makeRunPartition(a_.rows(), ref_.ptrs().data());
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] = part.range(c);
        plan::PlanState &st = out[static_cast<size_t>(c)];
        reserveOutput(st, ref_, beg, end);
        h.addBaselineTrace(c, kernels::traceSpadd(a_, b_, st.idxs,
                                                  st.vals, st.rowNnz,
                                                  beg, end, h.simd()));
    }
    RunResult res = h.finish();
    verifySparse(res, part, out, ref_, Tolerance::Exact);
    return res;
}

} // namespace tmu::workloads
