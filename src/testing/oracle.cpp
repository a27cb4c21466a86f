#include "oracle.hpp"

#include <numeric>
#include <sstream>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "kernels/cpals.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/spadd.hpp"
#include "kernels/spmm.hpp"
#include "kernels/spmspm.hpp"
#include "kernels/spmspv.hpp"
#include "kernels/spmv.hpp"
#include "kernels/sptc.hpp"
#include "kernels/spttm.hpp"
#include "kernels/spttv.hpp"
#include "kernels/tricount.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "sim/addrspace.hpp"
#include "sim/memsys.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tensor/mmio.hpp"
#include "tmu/engine.hpp"
#include "tmu/functional.hpp"
#include "tmu/outq.hpp"
#include "workloads/programs.hpp"
#include "workloads/wl_einsum.hpp"
#include "workloads/wl_merge.hpp"
#include "workloads/wl_spmspm.hpp"
#include "workloads/wl_spmv.hpp"
#include "workloads/wl_tensor.hpp"

namespace tmu::testing {

using engine::OutqRecord;
using tensor::Compare;
using tensor::CooTensor;
using tensor::CsfTensor;
using tensor::CsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;

const char *
mutationName(Mutation m)
{
    switch (m) {
      case Mutation::None:         return "none";
      case Mutation::DropEntry:    return "drop-entry";
      case Mutation::PerturbValue: return "perturb-value";
      case Mutation::ScaleValues:  return "scale-values";
      case Mutation::GrowDim:      return "grow-dim";
    }
    return "?";
}

CooTensor
applyMutation(const CooTensor &coo, Mutation m)
{
    if (m == Mutation::None)
        return coo;
    if (coo.nnz() == 0 && m != Mutation::GrowDim)
        m = Mutation::GrowDim;

    std::vector<Index> dims = coo.dims();
    if (m == Mutation::GrowDim)
        ++dims.back();

    CooTensor out(dims);
    const Index victim = coo.nnz() / 2;
    for (Index p = 0; p < coo.nnz(); ++p) {
        if (m == Mutation::DropEntry && p == victim)
            continue;
        std::vector<Index> coord(static_cast<size_t>(coo.order()));
        for (int mode = 0; mode < coo.order(); ++mode)
            coord[static_cast<size_t>(mode)] = coo.idx(mode, p);
        Value v = coo.val(p);
        if (m == Mutation::PerturbValue && p == victim)
            v = v == 0.0 ? 1e-3 : v * (1.0 + 1e-6);
        else if (m == Mutation::ScaleValues)
            v = v == 0.0 ? 1e-3 : v * 1.001;
        out.push(coord, v);
    }
    out.sortAndCombine();
    return out;
}

namespace {

/** Drain a baseline trace; its side effects compute the result. */
void
drainTrace(sim::Trace t)
{
    while (t.next()) {
    }
}

/**
 * Validate collector triplet arrays and assemble a CSR matrix, or
 * return an error line. The trace kernels append (idxs, vals) runs
 * delimited by per-row counts; a buggy kernel can emit duplicate or
 * unsorted columns, which the CsrMatrix constructor would turn into a
 * process abort — report it as an oracle failure instead.
 */
std::string
rebuildCsr(const std::string &what, Index rows, Index cols,
           const std::vector<Index> &rowNnz,
           const std::vector<Index> &idxs,
           const std::vector<Value> &vals, CsrMatrix &out)
{
    if (rowNnz.size() != static_cast<size_t>(rows)) {
        return detail::format("%s: %zu row counts for %lld rows",
                              what.c_str(), rowNnz.size(),
                              static_cast<long long>(rows));
    }
    const auto total = std::accumulate(rowNnz.begin(), rowNnz.end(),
                                       Index{0});
    if (idxs.size() != vals.size() ||
        idxs.size() != static_cast<size_t>(total)) {
        return detail::format("%s: %zu idxs / %zu vals for %lld counted",
                              what.c_str(), idxs.size(), vals.size(),
                              static_cast<long long>(total));
    }
    std::vector<Index> ptrs(static_cast<size_t>(rows) + 1, 0);
    size_t q = 0;
    for (Index r = 0; r < rows; ++r) {
        for (Index e = 0; e < rowNnz[static_cast<size_t>(r)]; ++e, ++q) {
            if (idxs[q] < 0 || idxs[q] >= cols) {
                return detail::format(
                    "%s: row %lld col %lld out of range",
                    what.c_str(), static_cast<long long>(r),
                    static_cast<long long>(idxs[q]));
            }
            if (e > 0 && idxs[q - 1] >= idxs[q]) {
                return detail::format(
                    "%s: row %lld col %lld after %lld (unsorted or "
                    "duplicate)",
                    what.c_str(), static_cast<long long>(r),
                    static_cast<long long>(idxs[q]),
                    static_cast<long long>(idxs[q - 1]));
            }
        }
        ptrs[static_cast<size_t>(r) + 1] = static_cast<Index>(q);
    }
    out = CsrMatrix(rows, cols, std::move(ptrs), idxs, vals);
    return {};
}

/** Record-for-record diff of two OutqRecord streams; "" on match. */
std::string
diffRecords(const std::string &what, const std::vector<OutqRecord> &a,
            const std::vector<OutqRecord> &b)
{
    if (a.size() != b.size()) {
        return detail::format("%s: %zu records vs %zu", what.c_str(),
                              a.size(), b.size());
    }
    for (size_t i = 0; i < a.size(); ++i) {
        const OutqRecord &x = a[i];
        const OutqRecord &y = b[i];
        if (x.layer != y.layer || x.event != y.event ||
            x.callbackId != y.callbackId || !(x.mask == y.mask) ||
            x.operands != y.operands) {
            return detail::format(
                "%s: record %zu diverges (cb %d vs %d, layer %d vs %d)",
                what.c_str(), i, x.callbackId, y.callbackId, x.layer,
                y.layer);
        }
    }
    return {};
}

/** Drain a standalone cycle-level engine into a record vector. */
std::vector<OutqRecord>
drainEngine(engine::TmuEngine &eng, Cycle maxCycles = 5'000'000)
{
    std::vector<OutqRecord> records;
    Cycle now = 0;
    while (now < maxCycles) {
        ++now;
        const bool active = eng.tick(now);
        OutqRecord rec;
        Addr addr = 0;
        while (eng.popRecord(now, rec, addr))
            records.push_back(rec);
        if (!active && eng.allConsumed())
            break;
    }
    return records;
}

/**
 * Run @p ps's TMU program on a standalone cycle-level engine and drain
 * its outQ through the production callback handlers
 * (plan::bindHandlers), as a core consumes it. The handlers write the
 * plan's bindings and @p st; returns "" or a diagnostic when the
 * engine does not drain.
 */
std::string
runPlanOnEngine(const std::string &what, const plan::PlanSpec &ps,
                plan::PlanState &st)
{
    constexpr Cycle kMaxCycles = 5'000'000;
    sim::SystemConfig sys = sim::SystemConfig::neoverseN1();
    sys.cores = 1;
    sim::MemorySystem mem(sys);
    const engine::TmuProgram prog = plan::lowerProgram(ps);
    engine::TmuEngine eng(0, engine::EngineConfig{}, mem, prog);
    engine::OutqSource src(eng);
    plan::initPlanState(ps, st);
    plan::bindHandlers(ps, src, st);
    sim::MicroOp op;
    Cycle now = 0;
    while (!src.done() && now < kMaxCycles) {
        ++now;
        eng.tick(now);
        while (src.pullOp(op, now)) {
        }
    }
    if (!src.done()) {
        return detail::format("%s: outQ not drained after %llu cycles",
                              what.c_str(),
                              static_cast<unsigned long long>(now));
    }
    return {};
}

/** Compile @p expr (P1) at the oracle's lane count; "" or the error. */
std::string
compile(const std::string &what, const char *expr,
        const plan::frontend::EinsumBindings &fb, int lanes,
        plan::PlanSpec &out)
{
    plan::frontend::CompileOptions fo;
    fo.lanes = lanes;
    auto ps = plan::frontend::compileEinsum(expr, fb, fo);
    if (!ps.ok())
        return what + "-compile: " + ps.error().str();
    out = std::move(*ps);
    return {};
}

} // namespace

OracleResult
checkMatrix(const CooTensor &coo, const OracleConfig &cfg, Mutation mut)
{
    TMU_ASSERT(coo.order() == 2 && coo.isCanonical());
    OracleResult res;
    auto fail = [&res](std::string s) {
        if (!s.empty())
            res.failures.push_back(std::move(s));
    };
    const Compare exact = Compare::exact();
    const Compare &tol = cfg.cmp;
    const sim::SimdConfig simd{};

    const CooTensor mcoo = applyMutation(coo, mut);
    const CsrMatrix rcsr = tensor::cooToCsr(coo);  //!< reference legs
    const CsrMatrix mcsr = tensor::cooToCsr(mcoo); //!< derived legs

    // --- format permutation legs: every compressed form round-trips
    // back to the same canonical COO / CSR.
    fail(diffCoo("csr-roundtrip", coo, tensor::csrToCoo(mcsr), exact));
    fail(diffCsr("dcsr-roundtrip", rcsr,
                 tensor::dcsrToCsr(tensor::csrToDcsr(mcsr)), exact));
    fail(diffCoo("csf-roundtrip", coo,
                 tensor::csfToCoo(tensor::cooToCsf(mcoo)), exact));
    fail(diffCsr("transpose-involution", rcsr,
                 tensor::transposeCsr(tensor::transposeCsr(mcsr)),
                 exact));

    // --- I/O round trips (satellite c: write -> read preserves
    // coordinates and exact values).
    {
        std::stringstream ss;
        tensor::writeTns(ss, mcoo);
        const auto back = tensor::tryReadTns(ss);
        if (!back.ok())
            fail("tns-roundtrip: " + back.error().str());
        else
            fail(diffCoo("tns-roundtrip", coo, back.value(), exact));
    }
    {
        std::stringstream ss;
        tensor::writeMatrixMarket(ss, mcsr);
        const auto back = tensor::tryReadMatrixMarket(ss);
        if (!back.ok())
            fail("mtx-roundtrip: " + back.error().str());
        else
            fail(diffCoo("mtx-roundtrip", coo, back.value(), exact));
    }

    // A mutation is guaranteed to surface above (the round-trip legs
    // compare the mutated derivations against the clean original); the
    // kernel legs below assume matching operand shapes, so stop here.
    if (mut != Mutation::None && !res.failures.empty())
        return res;
    if (mcsr.rows() != rcsr.rows() || mcsr.cols() != rcsr.cols())
        return res;

    const Index rows = rcsr.rows();
    const Index cols = rcsr.cols();
    Rng rng(cfg.operandSeed);

    // --- SpMV: reference kernel vs the compiled plan's reference,
    // trace and TMU legs.
    DenseVector b(cols);
    for (Index i = 0; i < cols; ++i)
        b[i] = rng.nextValue(-1.0, 1.0);
    const DenseVector spmvWant = kernels::spmvRef(rcsr, b);
    {
        DenseVector x(rows);
        plan::frontend::EinsumBindings fb;
        fb.csr["A"] = &mcsr;
        fb.vec["B"] = &b;
        fb.outVec = &x;
        plan::PlanSpec ps;
        std::string err = compile("spmv", workloads::SpmvWorkload::kEinsum,
                                  fb, cfg.lanes, ps);
        if (!err.empty()) {
            fail(std::move(err));
        } else {
            plan::lowerReference(ps); // RowReduce writes the binding
            fail(diffDense("spmv-plan-ref", spmvWant, x, tol));
            x.fill(0.0);
            drainTrace(plan::lowerTrace(ps, {}, simd));
            fail(diffDense("spmv-trace", spmvWant, x, tol));
            x.fill(0.0);
            plan::PlanState st;
            err = runPlanOnEngine("spmv-tmu-p1", ps, st);
            if (err.empty() && st.row != rows) {
                err = detail::format(
                    "spmv-tmu-p1: %lld row-end records for %lld rows",
                    static_cast<long long>(st.row),
                    static_cast<long long>(rows));
            }
            fail(err.empty() ? diffDense("spmv-tmu-p1", spmvWant, x, tol)
                             : std::move(err));
            if (cfg.heavy) {
                // Cycle-level engine vs functional interpreter, record
                // for record (the strongest TMU-pipeline invariant).
                const engine::TmuProgram prog = plan::lowerProgram(ps);
                sim::SystemConfig sys = sim::SystemConfig::neoverseN1();
                sim::MemorySystem mem(sys);
                engine::TmuEngine eng(0, engine::EngineConfig{}, mem,
                                      prog);
                fail(diffRecords("spmv-engine-records",
                                 engine::interpretToVector(prog),
                                 drainEngine(eng)));
            }
        }
    }
    if (rows > 0) {
        // The PageRank variant: same plan family, affine row update.
        DenseVector xp(rows);
        plan::frontend::EinsumBindings fb;
        fb.csr["A"] = &mcsr;
        fb.vec["X"] = &b;
        fb.outVec = &xp;
        fb.scalars["alpha"] = 0.85;
        fb.scalars["beta"] = (1.0 - 0.85) / static_cast<double>(rows);
        plan::PlanSpec ps;
        std::string err =
            compile("pagerank", workloads::PagerankWorkload::kEinsum, fb,
                    cfg.lanes, ps);
        if (!err.empty()) {
            fail(std::move(err));
        } else {
            plan::lowerReference(ps);
            DenseVector wantPr(rows);
            for (Index i = 0; i < rows; ++i) {
                wantPr[i] = (1.0 - 0.85) / static_cast<double>(rows) +
                            0.85 * spmvWant[i];
            }
            fail(diffDense("pagerank-plan-ref", wantPr, xp, tol));
        }
    }

    // --- Einsum frontend (docs/FRONTEND.md): the frontend-only kinds
    // (SDDMM, SpMM, SpMM-SC) must agree with plain host loops through
    // the reference, trace and engine legs.
    {
        // SDDMM: Z = A .* (B C^T) sampled on A's pattern.
        const Index rank = 4;
        DenseMatrix bf(rows, rank), cf(cols, rank);
        for (Index i = 0; i < rows; ++i)
            for (Index k = 0; k < rank; ++k)
                bf(i, k) = rng.nextValue(-1.0, 1.0);
        for (Index j = 0; j < cols; ++j)
            for (Index k = 0; k < rank; ++k)
                cf(j, k) = rng.nextValue(-1.0, 1.0);
        std::vector<Index> wi, wrn;
        std::vector<Value> wv;
        for (Index i = 0; i < rows; ++i) {
            wrn.push_back(mcsr.rowNnz(i));
            for (Index p = mcsr.rowBegin(i); p < mcsr.rowEnd(i); ++p) {
                const Index j = mcsr.idxs()[static_cast<size_t>(p)];
                Value dot = 0.0;
                for (Index k = 0; k < rank; ++k)
                    dot += bf(i, k) * cf(j, k);
                wi.push_back(j);
                wv.push_back(mcsr.vals()[static_cast<size_t>(p)] *
                             dot);
            }
        }
        CsrMatrix want;
        std::string err =
            rebuildCsr("sddmm-want", rows, cols, wrn, wi, wv, want);
        plan::frontend::EinsumBindings fb;
        fb.csr["A"] = &mcsr;
        fb.mat["B"] = &bf;
        fb.mat["C"] = &cf;
        plan::frontend::CompileOptions fo;
        fo.lanes = cfg.lanes;
        auto cps = plan::frontend::compileEinsum(
            workloads::SddmmWorkload::kEinsum, fb, fo);
        if (!err.empty() || !cps.ok()) {
            fail(!err.empty() ? std::move(err)
                              : "sddmm-einsum-compile: " +
                                    cps.error().str());
        } else {
            cps->validate();
            const plan::ReferenceResult pr = plan::lowerReference(*cps);
            CsrMatrix got;
            err = rebuildCsr("sddmm-ref", rows, cols, pr.rowNnz,
                             pr.idxs, pr.vals, got);
            if (!err.empty())
                fail(std::move(err));
            else
                fail(diffCsr("sddmm-ref", want, got, tol));
            std::vector<Index> ti, trn;
            std::vector<Value> tv;
            drainTrace(plan::lowerTrace(*cps, {&ti, &tv, &trn, nullptr},
                                        simd));
            err = rebuildCsr("sddmm-trace", rows, cols, trn, ti, tv,
                             got);
            if (!err.empty())
                fail(std::move(err));
            else
                fail(diffCsr("sddmm-trace", want, got, tol));
            if (cfg.heavy && rows <= 64 && cols <= 64) {
                const engine::TmuProgram prog =
                    plan::lowerProgram(*cps);
                sim::SystemConfig sys = sim::SystemConfig::neoverseN1();
                sim::MemorySystem mem(sys);
                engine::TmuEngine eng(0, engine::EngineConfig{}, mem,
                                      prog);
                fail(diffRecords("sddmm-engine-records",
                                 engine::interpretToVector(prog),
                                 drainEngine(eng)));
            }
        }
    }
    {
        // SpMM with sparse output rows, and its scatter-map variant.
        const Index nc = 3;
        DenseMatrix bf(cols, nc);
        for (Index k = 0; k < cols; ++k)
            for (Index j = 0; j < nc; ++j)
                bf(k, j) = rng.nextValue(-1.0, 1.0);
        std::vector<Index> wi, wrn;
        std::vector<Value> wv;
        for (Index i = 0; i < rows; ++i) {
            wrn.push_back(mcsr.rowNnz(i) > 0 ? nc : 0);
            for (Index j = 0; j < wrn.back(); ++j) {
                Value sum = 0.0;
                for (Index p = mcsr.rowBegin(i); p < mcsr.rowEnd(i);
                     ++p) {
                    sum += mcsr.vals()[static_cast<size_t>(p)] *
                           bf(mcsr.idxs()[static_cast<size_t>(p)], j);
                }
                wi.push_back(j);
                wv.push_back(sum);
            }
        }
        CsrMatrix want;
        std::string err =
            rebuildCsr("spmm-want", rows, nc, wrn, wi, wv, want);
        plan::frontend::EinsumBindings fb;
        fb.csr["A"] = &mcsr;
        fb.mat["B"] = &bf;
        plan::frontend::CompileOptions fo;
        fo.lanes = cfg.lanes;
        auto cps = plan::frontend::compileEinsum(
            workloads::SpmmWorkload::kEinsum, fb, fo);
        if (!err.empty() || !cps.ok()) {
            fail(!err.empty() ? std::move(err)
                              : "spmm-einsum-compile: " +
                                    cps.error().str());
        } else {
            cps->validate();
            const plan::ReferenceResult pr = plan::lowerReference(*cps);
            CsrMatrix got;
            err = rebuildCsr("spmm-ref", rows, nc, pr.rowNnz, pr.idxs,
                             pr.vals, got);
            if (!err.empty())
                fail(std::move(err));
            else
                fail(diffCsr("spmm-ref", want, got, tol));
            std::vector<Index> ti, trn;
            std::vector<Value> tv;
            drainTrace(plan::lowerTrace(*cps, {&ti, &tv, &trn, nullptr},
                                        simd));
            err = rebuildCsr("spmm-trace", rows, nc, trn, ti, tv, got);
            if (!err.empty())
                fail(std::move(err));
            else
                fail(diffCsr("spmm-trace", want, got, tol));
        }

        // Scatter variant: rows land at map(i) in a dense output.
        std::vector<Index> map(static_cast<size_t>(rows));
        for (Index i = 0; i < rows; ++i)
            map[static_cast<size_t>(i)] = rows - 1 - i;
        DenseMatrix wantZ(rows, nc, 0.0);
        for (Index i = 0; i < rows; ++i) {
            const Index zi = map[static_cast<size_t>(i)];
            for (Index p = mcsr.rowBegin(i); p < mcsr.rowEnd(i); ++p) {
                const Index k = mcsr.idxs()[static_cast<size_t>(p)];
                for (Index j = 0; j < nc; ++j) {
                    wantZ(zi, j) +=
                        mcsr.vals()[static_cast<size_t>(p)] * bf(k, j);
                }
            }
        }
        DenseMatrix z(rows, nc, 0.0);
        plan::frontend::EinsumBindings sb;
        sb.csr["A"] = &mcsr;
        sb.mat["B"] = &bf;
        sb.maps["m"] = &map;
        sb.outMat = &z;
        auto sps = plan::frontend::compileEinsum(
            workloads::SpmmScatterWorkload::kEinsum, sb, fo);
        if (!sps.ok()) {
            fail("spmm-sc-einsum-compile: " + sps.error().str());
        } else {
            sps->validate();
            plan::lowerReference(*sps); // accumulates into z
            fail(diffDense("spmm-sc-ref", wantZ, z, tol));
            z.fill(0.0);
            drainTrace(plan::lowerTrace(*sps, {}, simd));
            fail(diffDense("spmm-sc-trace", wantZ, z, tol));
        }
    }

    // --- SpAdd / SpKAdd: merge legs.
    {
        tensor::CsrGenConfig gc;
        gc.rows = rows;
        gc.cols = cols;
        gc.nnzPerRow = 2.0;
        gc.seed = rng.next();
        const CsrMatrix b2 = tensor::randomCsr(gc);
        const CsrMatrix want = kernels::spaddRef(rcsr, b2);
        fail(diffCsr("spadd-commute", want, kernels::spaddRef(b2, mcsr),
                     exact));
        std::vector<Index> oi, orn;
        std::vector<Value> ov;
        drainTrace(kernels::traceSpadd(mcsr, b2, oi, ov, orn, 0, rows,
                                       simd));
        CsrMatrix got;
        std::string err =
            rebuildCsr("spadd-trace", rows, cols, orn, oi, ov, got);
        if (!err.empty())
            fail(std::move(err));
        else
            fail(diffCsr("spadd-trace", want, got, exact));
    }
    {
        const int k = 2 + static_cast<int>(rng.nextBounded(3));
        const auto parts = tensor::splitCyclic(mcsr, k);
        // splitCyclic folds original row i*k+x into row i of input x,
        // so the K-way disjunctive merge equals the row-folded sum
        // fold[i] = sum_x A[i*k+x] — computable directly in COO by
        // rewriting every row coordinate to r/k and combining.
        const Index foldRows = (rows + k - 1) / k;
        CooTensor foldCoo({foldRows, cols});
        for (Index p = 0; p < coo.nnz(); ++p)
            foldCoo.push2(coo.idx(0, p) / k, coo.idx(1, p),
                          coo.val(p));
        foldCoo.sortAndCombine();
        // Collided values may be summed in a different order than the
        // lane-ordered merge, so this cross-check uses the tolerance.
        const CsrMatrix refK = kernels::spkaddRef(parts);
        fail(diffCsr("spkadd-fold", tensor::cooToCsr(foldCoo), refK,
                     cfg.cmp));
        plan::frontend::EinsumBindings fb;
        fb.ensembles["A^k"] = &parts;
        plan::PlanSpec ps;
        std::string err = compile("spkadd", workloads::SpkaddWorkload::kEinsum,
                                  fb, cfg.lanes, ps);
        if (!err.empty()) {
            fail(std::move(err));
        } else {
            const plan::ReferenceResult pr = plan::lowerReference(ps);
            CsrMatrix got;
            err = rebuildCsr("spkadd-plan-ref", foldRows, cols, pr.rowNnz,
                             pr.idxs, pr.vals, got);
            fail(err.empty() ? diffCsr("spkadd-plan-ref", refK, got, exact)
                             : std::move(err));

            std::vector<Index> oi, orn;
            std::vector<Value> ov;
            drainTrace(plan::lowerTrace(ps, {&oi, &ov, &orn, nullptr},
                                        simd));
            err = rebuildCsr("spkadd-trace", foldRows, cols, orn, oi, ov,
                             got);
            fail(err.empty() ? diffCsr("spkadd-trace", refK, got, exact)
                             : std::move(err));

            // TMU leg: the row latch and the lane reduce emit one
            // (row, col, sum) element per merged column group.
            plan::PlanState st;
            err = runPlanOnEngine("spkadd-tmu", ps, st);
            CooTensor merged({foldRows, cols});
            for (size_t e = 0; err.empty() && e < st.vals.size(); ++e) {
                const Index row = st.rows[e];
                const Index col = st.idxs[e];
                if (row < 0 || row >= foldRows || col < 0 || col >= cols)
                    err = "spkadd-tmu: record coordinate out of range";
                else
                    merged.push2(row, col, st.vals[e]);
            }
            if (err.empty()) {
                merged.sortAndCombine();
                err = diffCoo("spkadd-tmu", tensor::csrToCoo(refK), merged,
                              exact);
            }
            fail(std::move(err));
        }
    }

    // --- SpMSpM (Z = A * A^T works for any shape): reference
    // Gustavson vs trace vs dense comparator vs TMU P2 program.
    {
        const CsrMatrix bT = tensor::transposeCsr(mcsr);
        const CsrMatrix want = kernels::spmspmRef(mcsr, bT);
        const auto rowNnzWant = kernels::spmspmRowNnz(mcsr, bT);
        for (Index r = 0; r < rows; ++r) {
            if (rowNnzWant[static_cast<size_t>(r)] != want.rowNnz(r)) {
                fail(detail::format(
                    "spmspm-symbolic: row %lld nnz %lld vs %lld",
                    static_cast<long long>(r),
                    static_cast<long long>(
                        rowNnzWant[static_cast<size_t>(r)]),
                    static_cast<long long>(want.rowNnz(r))));
                break;
            }
        }
        if (cfg.heavy && rows <= 64 && cols <= 64) {
            const DenseMatrix da = tensor::csrToDense(mcsr);
            const DenseMatrix db = tensor::csrToDense(bT);
            for (Index i = 0; i < rows; ++i) {
                std::string denseErr;
                for (Index j = 0; j < bT.cols() && denseErr.empty();
                     ++j) {
                    Value sum = 0.0;
                    for (Index kk = 0; kk < cols; ++kk)
                        sum += da(i, kk) * db(kk, j);
                    if (!tol.close(sum, want.at(i, j))) {
                        denseErr = detail::format(
                            "spmspm-dense: (%lld,%lld) %.17g vs %.17g",
                            static_cast<long long>(i),
                            static_cast<long long>(j), sum,
                            want.at(i, j));
                    }
                }
                if (!denseErr.empty()) {
                    fail(std::move(denseErr));
                    break;
                }
            }
        }

        plan::frontend::EinsumBindings fb;
        fb.csr["A"] = &mcsr;
        fb.csr["B"] = &bT;
        plan::PlanSpec ps;
        std::string err = compile("spmspm", workloads::SpmspmWorkload::kEinsum,
                                  fb, cfg.lanes, ps);
        if (!err.empty()) {
            fail(std::move(err));
        } else {
            const plan::ReferenceResult pr = plan::lowerReference(ps);
            CsrMatrix got;
            err = rebuildCsr("spmspm-plan-ref", rows, bT.cols(), pr.rowNnz,
                             pr.idxs, pr.vals, got);
            fail(err.empty() ? diffCsr("spmspm-plan-ref", want, got, tol)
                             : std::move(err));

            std::vector<Index> oi, orn;
            std::vector<Value> ov;
            drainTrace(plan::lowerTrace(ps, {&oi, &ov, &orn, nullptr},
                                        simd));
            err = rebuildCsr("spmspm-trace", rows, bT.cols(), orn, oi, ov,
                             got);
            fail(err.empty() ? diffCsr("spmspm-trace", want, got, tol)
                             : std::move(err));

            // TMU P2 leg: seen-bitmap novelty tracking, one workspace
            // flush per row (see kernels/spmspm.cpp).
            plan::PlanState st;
            err = runPlanOnEngine("spmspm-tmu-p2", ps, st);
            if (err.empty()) {
                err = rebuildCsr("spmspm-tmu-p2", rows, bT.cols(),
                                 st.rowNnz, st.idxs, st.vals, got);
            }
            fail(err.empty() ? diffCsr("spmspm-tmu-p2", want, got, tol)
                             : std::move(err));
        }
    }

    // --- SpMM vs per-column SpMV.
    {
        const Index rk = 3;
        DenseMatrix bm(cols, rk);
        for (Index i = 0; i < cols; ++i) {
            for (Index j = 0; j < rk; ++j)
                bm(i, j) = rng.nextValue(-1.0, 1.0);
        }
        const DenseMatrix z = kernels::spmmRef(mcsr, bm);
        for (Index j = 0; j < rk; ++j) {
            DenseVector bj(cols);
            for (Index i = 0; i < cols; ++i)
                bj[i] = bm(i, j);
            const DenseVector zj = kernels::spmvRef(rcsr, bj);
            std::string err;
            for (Index i = 0; i < rows; ++i) {
                if (!tol.close(z(i, j), zj[i])) {
                    err = detail::format(
                        "spmm-vs-spmv: (%lld,%lld) %.17g vs %.17g",
                        static_cast<long long>(i),
                        static_cast<long long>(j), z(i, j), zj[i]);
                    break;
                }
            }
            if (!err.empty()) {
                fail(std::move(err));
                break;
            }
        }
    }

    // --- SpMSpV vs SpMV over the densified vector.
    {
        std::vector<Index> si;
        std::vector<Value> sv;
        DenseVector bd(cols);
        for (Index c = 0; c < cols; ++c) {
            if (rng.nextBool(0.4)) {
                si.push_back(c);
                sv.push_back(rng.nextValue(-1.0, 1.0));
                bd[c] = sv.back();
            }
        }
        const tensor::SparseVector sb(cols, std::move(si),
                                      std::move(sv));
        fail(diffDense("spmspv-vs-spmv", kernels::spmvRef(rcsr, bd),
                       kernels::spmspvRef(mcsr, sb), tol));
    }

    // --- TriangleCount (square inputs): reference vs the compiled
    // plan's reference, trace and TMU counts vs brute force.
    if (rows == cols && rows <= 64) {
        const CsrMatrix sym =
            kernels::spaddRef(mcsr, tensor::transposeCsr(mcsr));
        const CsrMatrix lower = tensor::lowerTriangle(sym);
        const std::uint64_t want = kernels::tricountRef(lower);
        auto diffCount = [want](const char *what, std::uint64_t got) {
            if (got == want)
                return std::string();
            return detail::format("%s: %llu vs %llu", what,
                                  static_cast<unsigned long long>(got),
                                  static_cast<unsigned long long>(want));
        };
        plan::frontend::EinsumBindings fb;
        fb.csr["L"] = &lower;
        plan::PlanSpec ps;
        std::string err =
            compile("tricount", workloads::TricountWorkload::kEinsum, fb,
                    cfg.lanes, ps);
        if (!err.empty()) {
            fail(std::move(err));
        } else {
            fail(diffCount("tricount-plan-ref",
                           plan::lowerReference(ps).count));
            std::uint64_t traced = 0;
            plan::TraceSinks io;
            io.count = &traced;
            drainTrace(plan::lowerTrace(ps, io, simd));
            fail(diffCount("tricount-trace", traced));
            plan::PlanState st;
            err = runPlanOnEngine("tricount-tmu", ps, st);
            fail(err.empty() ? diffCount("tricount-tmu", st.count)
                             : std::move(err));
        }
        if (cfg.heavy) {
            // Brute force over the *structural* adjacency (explicit
            // zeros are still edges).
            std::vector<char> adj(static_cast<size_t>(rows * rows), 0);
            for (Index r = 0; r < rows; ++r) {
                for (Index p = sym.rowBegin(r); p < sym.rowEnd(r); ++p) {
                    const Index c = sym.idxs()[static_cast<size_t>(p)];
                    if (c != r) {
                        adj[static_cast<size_t>(r * rows + c)] = 1;
                        adj[static_cast<size_t>(c * rows + r)] = 1;
                    }
                }
            }
            std::uint64_t brute = 0;
            for (Index i = 0; i < rows; ++i) {
                for (Index j = i + 1; j < rows; ++j) {
                    if (!adj[static_cast<size_t>(i * rows + j)])
                        continue;
                    for (Index k = j + 1; k < rows; ++k) {
                        brute +=
                            adj[static_cast<size_t>(i * rows + k)] &&
                            adj[static_cast<size_t>(j * rows + k)];
                    }
                }
            }
            fail(diffCount("tricount-brute", brute));
        }
    }

    return res;
}

OracleResult
checkTensor3(const CooTensor &coo, const OracleConfig &cfg, Mutation mut)
{
    TMU_ASSERT(coo.order() == 3 && coo.isCanonical());
    OracleResult res;
    auto fail = [&res](std::string s) {
        if (!s.empty())
            res.failures.push_back(std::move(s));
    };
    const Compare exact = Compare::exact();
    const Compare &tol = cfg.cmp;
    const sim::SimdConfig simd{};

    const CooTensor mcoo = applyMutation(coo, mut);

    // --- format + I/O round trips (these alone catch every mutation).
    fail(diffCoo("csf-roundtrip", coo,
                 tensor::csfToCoo(tensor::cooToCsf(mcoo)), exact));
    {
        std::stringstream ss;
        tensor::writeTns(ss, mcoo);
        const auto back = tensor::tryReadTns(ss);
        if (!back.ok())
            fail("tns-roundtrip: " + back.error().str());
        else
            fail(diffCoo("tns-roundtrip", coo, back.value(), exact));
    }
    if (mut != Mutation::None && !res.failures.empty())
        return res;

    const CsfTensor csf = tensor::cooToCsf(coo);
    const Index d0 = coo.dim(0);
    const Index d1 = coo.dim(1);
    const Index d2 = coo.dim(2);
    Rng rng(cfg.operandSeed);

    // --- SpTTV: CSF traversal vs direct COO accumulation vs the TMU
    // program.
    DenseVector b(d2);
    for (Index i = 0; i < d2; ++i)
        b[i] = rng.nextValue(-1.0, 1.0);
    const kernels::SpttvResult want = kernels::spttvRef(csf, b);
    {
        // Canonical COO order groups (i, j) fibers contiguously, so a
        // single pass reproduces the CSF fiber order.
        kernels::SpttvResult direct;
        for (Index p = 0; p < coo.nnz(); ++p) {
            const kernels::Coord2 ij{coo.idx(0, p), coo.idx(1, p)};
            if (direct.coords.empty() || !(direct.coords.back() == ij)) {
                direct.coords.push_back(ij);
                direct.vals.push_back(0.0);
            }
            direct.vals.back() += coo.val(p) * b[coo.idx(2, p)];
        }
        if (direct.coords != want.coords)
            fail("spttv-direct: fiber coordinate sets differ");
        else
            fail(diffVals("spttv-direct", want.vals, direct.vals, tol));
    }
    if (coo.nnz() > 0) {
        kernels::SpttvResult fx;
        Index curI = 0, curJ = 0;
        Value sum = 0.0;
        engine::interpret(
            workloads::buildSpttv(csf, b, cfg.lanes, 0, csf.numNodes(0)),
            [&](const OutqRecord &rec) {
                if (rec.callbackId == workloads::kCbRoot) {
                    curI = rec.i64(0, 0);
                } else if (rec.callbackId == workloads::kCbRow) {
                    curJ = rec.i64(0, 0);
                    sum = 0.0;
                } else if (rec.callbackId == workloads::kCbRi) {
                    for (size_t i = 0; i < rec.operands[0].size(); ++i)
                        sum += rec.f64(0, static_cast<int>(i)) *
                               rec.f64(1, static_cast<int>(i));
                } else if (rec.callbackId == workloads::kCbRe) {
                    fx.coords.push_back({curI, curJ});
                    fx.vals.push_back(sum);
                }
            });
        if (fx.coords != want.coords)
            fail("spttv-tmu: fiber coordinate sets differ");
        else
            fail(diffVals("spttv-tmu", want.vals, fx.vals, tol));
    }

    // --- SpTTM column c == SpTTV with column c of B.
    {
        const Index el = 3;
        DenseMatrix bm(d2, el);
        for (Index i = 0; i < d2; ++i) {
            for (Index j = 0; j < el; ++j)
                bm(i, j) = rng.nextValue(-1.0, 1.0);
        }
        const kernels::SpttmResult zm = kernels::spttmRef(csf, bm);
        if (zm.coords != want.coords) {
            fail("spttm-coords: output fiber set differs from spttv");
        } else {
            for (Index c = 0; c < el; ++c) {
                DenseVector bc(d2);
                for (Index i = 0; i < d2; ++i)
                    bc[i] = bm(i, c);
                const kernels::SpttvResult zc =
                    kernels::spttvRef(csf, bc);
                std::string err;
                for (size_t t = 0; t < zc.vals.size(); ++t) {
                    if (!tol.close(zc.vals[t],
                                   zm.rows(static_cast<Index>(t), c))) {
                        err = detail::format(
                            "spttm-vs-spttv: fiber %zu col %lld "
                            "%.17g vs %.17g",
                            t, static_cast<long long>(c), zc.vals[t],
                            zm.rows(static_cast<Index>(t), c));
                        break;
                    }
                }
                if (!err.empty()) {
                    fail(std::move(err));
                    break;
                }
            }
        }
    }

    // --- MTTKRP: reference vs trace vs mode-permutation vs TMU P1.
    {
        const Index rk = 4;
        DenseMatrix bf(d1, rk), cf(d2, rk);
        for (Index i = 0; i < d1; ++i) {
            for (Index j = 0; j < rk; ++j)
                bf(i, j) = rng.nextValue(-1.0, 1.0);
        }
        for (Index i = 0; i < d2; ++i) {
            for (Index j = 0; j < rk; ++j)
                cf(i, j) = rng.nextValue(-1.0, 1.0);
        }
        const DenseMatrix zr = kernels::mttkrpRef(coo, bf, cf, 0);

        // Swapping modes 1 and 2 (and B with C) leaves mode-0 MTTKRP
        // unchanged up to summation order.
        CooTensor sw({d0, d2, d1});
        for (Index p = 0; p < coo.nnz(); ++p) {
            sw.push({coo.idx(0, p), coo.idx(2, p), coo.idx(1, p)},
                    coo.val(p));
        }
        sw.sortAndCombine();
        fail(diffDense("mttkrp-modeswap", zr,
                       kernels::mttkrpRef(sw, cf, bf, 0), tol));

        if (coo.nnz() > 0) {
            DenseMatrix z(d0, rk);
            plan::frontend::EinsumBindings fb;
            fb.coo["A"] = &coo;
            fb.mat["B"] = &bf;
            fb.mat["C"] = &cf;
            fb.outMat = &z;
            plan::PlanSpec ps;
            std::string err =
                compile("mttkrp", workloads::MttkrpWorkload::kEinsum, fb,
                        cfg.lanes, ps);
            if (!err.empty()) {
                fail(std::move(err));
            } else {
                // Every leg accumulates into the bound z.
                plan::lowerReference(ps);
                fail(diffDense("mttkrp-plan-ref", zr, z, tol));
                z.fill(0.0);
                drainTrace(plan::lowerTrace(ps, {}, simd));
                fail(diffDense("mttkrp-trace", zr, z, tol));
                z.fill(0.0);
                plan::PlanState st;
                err = runPlanOnEngine("mttkrp-tmu-p1", ps, st);
                fail(err.empty() ? diffDense("mttkrp-tmu-p1", zr, z, tol)
                                 : std::move(err));
            }
        }
    }

    // --- SpTC symbolic: total vs per-root rows vs drained trace. The
    // mode-reversed tensor is a always-compatible contraction partner
    // (B.dim(0) == A.dim(2), B.dim(1) == A.dim(1)).
    {
        CooTensor rev({d2, d1, d0});
        for (Index p = 0; p < coo.nnz(); ++p) {
            rev.push({coo.idx(2, p), coo.idx(1, p), coo.idx(0, p)},
                     coo.val(p));
        }
        rev.sortAndCombine();
        const CsfTensor csfB = tensor::cooToCsf(rev);
        const Index total = kernels::sptcSymbolicRef(csf, csfB);
        const auto rowsWant = kernels::sptcSymbolicRowsRef(csf, csfB);
        const auto sum = std::accumulate(rowsWant.begin(),
                                         rowsWant.end(), Index{0});
        if (sum != total) {
            fail(detail::format("sptc-rows-sum: %lld vs total %lld",
                                static_cast<long long>(sum),
                                static_cast<long long>(total)));
        }
        std::vector<Index> rowNnz(
            static_cast<size_t>(csf.numNodes(0)), 0);
        drainTrace(kernels::traceSptcSymbolic(csf, csfB, rowNnz, 0,
                                              csf.numNodes(0), simd));
        if (rowNnz != rowsWant)
            fail("sptc-trace: per-root output counts differ");
    }

    // --- CP-ALS is a pure function of (tensor, config): run twice,
    // demand bit-identical factors (catches hidden global state).
    if (cfg.heavy && coo.nnz() > 0) {
        kernels::CpalsConfig cc;
        cc.rank = 4;
        cc.iterations = 1;
        cc.seed = rng.next();
        const auto f1 = kernels::cpalsRef(coo, cc);
        const auto f2 = kernels::cpalsRef(coo, cc);
        for (int m = 0; m < 3; ++m) {
            fail(diffDense(detail::format("cpals-determinism-mode%d", m),
                           f1[static_cast<size_t>(m)],
                           f2[static_cast<size_t>(m)], exact));
        }
    }

    return res;
}

OracleResult
checkAny(const CooTensor &coo, const OracleConfig &cfg, Mutation mut)
{
    return coo.order() == 2 ? checkMatrix(coo, cfg, mut)
                            : checkTensor3(coo, cfg, mut);
}

} // namespace tmu::testing
