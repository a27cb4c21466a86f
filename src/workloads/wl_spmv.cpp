#include "wl_spmv.hpp"

#include "common/log.hpp"
#include "common/rng.hpp"
#include "kernels/pagerank.hpp"
#include "kernels/spmv.hpp"
#include "plan/frontend/frontend.hpp"
#include "tensor/convert.hpp"
#include "tensor/suite.hpp"

namespace tmu::workloads {

using tensor::DenseVector;

namespace {

/** Shared SpMV-shaped run: x = A * contrib, optional weight update. */
RunResult
runSpmvShaped(const RunConfig &cfg, const tensor::CsrMatrix &a,
              const DenseVector &b, const DenseVector &ref,
              bool pagerankUpdate, double damping)
{
    RunHarness h(cfg);
    const int cores = h.cores();
    DenseVector x(a.rows());

    // Per-core row-iteration state for the TMU callbacks.
    std::vector<plan::PlanState> state(static_cast<size_t>(cores));

    if (cfg.mode == Mode::Baseline) {
        h.system().mem().registerIndexRegion(
            sim::addrOf(a.idxs().data(), 0),
            a.idxs().size() * sizeof(Index));
    }
    // The plans compile from their einsum; plan/plans.hpp keeps the
    // hand-authored specs as pinned comparison references.
    plan::frontend::EinsumBindings fb;
    fb.csr["A"] = &a;
    fb.outVec = &x;
    const char *expr;
    if (pagerankUpdate) {
        expr = PagerankWorkload::kEinsum;
        fb.vec["X"] = &b;
        fb.scalars["alpha"] = damping;
        fb.scalars["beta"] =
            (1.0 - damping) / static_cast<double>(a.rows());
    } else {
        expr = SpmvWorkload::kEinsum;
        fb.vec["B"] = &b;
    }
    const Partition part =
        h.makeRunPartition(a.rows(), a.ptrs().data());
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] = part.range(c);
        plan::frontend::CompileOptions fo;
        fo.lanes = cfg.programLanes;
        fo.beg = beg;
        fo.end = end;
        h.addPlan(c,
                  plan::frontend::compileEinsum(expr, fb, fo)
                      .valueOrFatal(),
                  state[static_cast<size_t>(c)]);
    }

    RunResult res = h.finish();
    verifyDense(res, ref.data(), ref.size(), 1, {x.data()},
                Tolerance::Exact);
    return res;
}

} // namespace

void
SpmvWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    a_ = tensor::matrixInput(inputId).generate(scaleDiv);
    b_ = DenseVector(a_.cols());
    Rng rng(17);
    for (Index i = 0; i < b_.size(); ++i)
        b_[i] = rng.nextValue(0.1, 1.0);
    ref_ = kernels::spmvRef(a_, b_);
}

RunResult
SpmvWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(a_.rows() > 0, "prepare() was not called");
    return runSpmvShaped(cfg, a_, b_, ref_, false, 0.0);
}

void
PagerankWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    a_ = tensor::matrixInput(inputId).generate(scaleDiv);
    const Index n = a_.rows();

    // One Jacobi iteration from the uniform start vector.
    const tensor::CsrMatrix at = tensor::transposeCsr(a_);
    contrib_ = DenseVector(n);
    for (Index j = 0; j < n; ++j) {
        const auto outdeg =
            static_cast<Value>(std::max<Index>(1, at.rowNnz(j)));
        contrib_[j] = (1.0 / static_cast<double>(n)) / outdeg;
    }
    kernels::PageRankConfig prc;
    prc.iterations = 1;
    prc.damping = damping_;
    ref_ = kernels::pagerankRef(a_, prc);
}

RunResult
PagerankWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(a_.rows() > 0, "prepare() was not called");
    return runSpmvShaped(cfg, a_, contrib_, ref_, true, damping_);
}

} // namespace tmu::workloads
