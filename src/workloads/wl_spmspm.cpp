#include "wl_spmspm.hpp"

#include "common/log.hpp"
#include "kernels/spmspm.hpp"
#include "kernels/tricount.hpp"
#include "plan/frontend/frontend.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tensor/suite.hpp"

namespace tmu::workloads {

void
SpmspmWorkload::prepareSynthetic(Index rows, Index nnzPerRow)
{
    a_ = tensor::fixedNnzCsr(rows, nnzPerRow);
    bt_ = tensor::fixedNnzCsr(nnzPerRow, nnzPerRow);
    ref_ = kernels::spmspmRef(a_, bt_);
}

void
SpmspmWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    // SpMSpM in the paper gets denser matrices than SpMV at the same
    // scale budget; scale a bit harder to keep runs tractable.
    a_ = tensor::matrixInput(inputId).generate(scaleDiv * 4);
    bt_ = tensor::transposeCsr(a_);
    ref_ = kernels::spmspmRef(a_, bt_);
}

RunResult
SpmspmWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(a_.rows() > 0, "prepare() was not called");
    RunHarness h(cfg);
    const int cores = h.cores();

    // Per-core output triplets (row-partitioned) plus the TMU-mode
    // accumulator workspace. Novelty is tracked with the seen bitmap,
    // not acc[j] == 0.0, so exact cancellation cannot re-insert a
    // column (see kernels/spmspm.cpp).
    std::vector<plan::PlanState> out(static_cast<size_t>(cores));

    if (cfg.mode == Mode::Baseline) {
        h.system().mem().registerIndexRegion(
            sim::addrOf(a_.idxs().data(), 0),
            a_.idxs().size() * sizeof(Index));
    }
    const Partition part =
        h.makeRunPartition(a_.rows(), a_.ptrs().data());
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] = part.range(c);
        plan::PlanState &st = out[static_cast<size_t>(c)];
        reserveOutput(st, ref_, beg, end);
        plan::frontend::EinsumBindings fb;
        fb.csr["A"] = &a_;
        fb.csr["B"] = &bt_;
        plan::frontend::CompileOptions fo;
        fo.lanes = cfg.programLanes;
        fo.beg = beg;
        fo.end = end;
        h.addPlan(c,
                  plan::frontend::compileEinsum(kEinsum, fb, fo)
                      .valueOrFatal(),
                  st);
    }

    RunResult res = h.finish();
    verifySparse(res, part, out, ref_, Tolerance::Exact);
    return res;
}

void
TricountWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    // Build a symmetric graph from the suite matrix's pattern, then
    // keep the strict lower triangle.
    tensor::CsrMatrix a =
        tensor::matrixInput(inputId).generate(scaleDiv * 4);
    tensor::CooTensor coo = tensor::csrToCoo(a);
    tensor::CooTensor sym({a.rows(), a.rows()});
    for (Index p = 0; p < coo.nnz(); ++p) {
        const Index i = coo.idx(0, p);
        const Index j = coo.idx(1, p) % a.rows();
        if (i == j)
            continue;
        sym.push2(i, j, 1.0);
        sym.push2(j, i, 1.0);
    }
    sym.sortAndCombine();
    for (auto &v : sym.vals())
        v = 1.0;
    l_ = tensor::lowerTriangle(tensor::cooToCsr(sym));
    ref_ = kernels::tricountRef(l_);
}

RunResult
TricountWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(l_.rows() > 0, "prepare() was not called");
    RunHarness h(cfg);
    const int cores = h.cores();
    std::vector<plan::PlanState> st(static_cast<size_t>(cores));

    const Partition part =
        h.makeRunPartition(l_.rows(), l_.ptrs().data());
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] = part.range(c);
        plan::frontend::EinsumBindings fb;
        fb.csr["L"] = &l_;
        plan::frontend::CompileOptions fo;
        fo.beg = beg;
        fo.end = end;
        h.addPlan(c,
                  plan::frontend::compileEinsum(kEinsum, fb, fo)
                      .valueOrFatal(),
                  st[static_cast<size_t>(c)]);
    }

    RunResult res = h.finish();
    Index total = 0;
    for (const auto &s : st)
        total += static_cast<Index>(s.count);
    const auto want = static_cast<Index>(ref_);
    verifyCounts(res, -1, 0, {&total, 1}, {&want, 1});
    return res;
}

} // namespace tmu::workloads
