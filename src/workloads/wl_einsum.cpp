#include "wl_einsum.hpp"

#include "common/log.hpp"
#include "common/rng.hpp"
#include "plan/frontend/frontend.hpp"
#include "tensor/suite.hpp"

namespace tmu::workloads {

using tensor::CsrMatrix;
using tensor::DenseMatrix;

namespace {

/** Compile @p expr for one core's row slice, fatal on any diagnostic
 *  (the expressions here are compile-time constants). */
plan::PlanSpec
compileSlice(const char *expr,
             const plan::frontend::EinsumBindings &fb,
             const RunConfig &cfg, Index beg, Index end)
{
    plan::frontend::CompileOptions fo;
    fo.lanes = cfg.programLanes;
    fo.beg = beg;
    fo.end = end;
    return plan::frontend::compileEinsum(expr, fb, fo).valueOrFatal();
}

} // namespace

void
SddmmWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    a_ = tensor::matrixInput(inputId).generate(scaleDiv);
    Rng rng(29);
    b_ = DenseMatrix(a_.rows(), kRank);
    c_ = DenseMatrix(a_.cols(), kRank);
    for (Index i = 0; i < b_.rows(); ++i)
        for (Index k = 0; k < kRank; ++k)
            b_(i, k) = rng.nextValue(0.1, 1.0);
    for (Index j = 0; j < c_.rows(); ++j)
        for (Index k = 0; k < kRank; ++k)
            c_(j, k) = rng.nextValue(0.1, 1.0);

    // Reference by plain host loops: the sampled pattern is A's own.
    std::vector<Value> vals;
    vals.reserve(static_cast<size_t>(a_.nnz()));
    for (Index i = 0; i < a_.rows(); ++i) {
        for (Index p = a_.rowBegin(i); p < a_.rowEnd(i); ++p) {
            const Index j = a_.idxs()[static_cast<size_t>(p)];
            Value dot = 0.0;
            for (Index k = 0; k < kRank; ++k)
                dot += b_(i, k) * c_(j, k);
            vals.push_back(a_.vals()[static_cast<size_t>(p)] * dot);
        }
    }
    ref_ = CsrMatrix(a_.rows(), a_.cols(), a_.ptrs(), a_.idxs(),
                     std::move(vals));
}

RunResult
SddmmWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(a_.rows() > 0, "prepare() was not called");
    RunHarness h(cfg);
    const int cores = h.cores();
    std::vector<plan::PlanState> out(static_cast<size_t>(cores));

    if (cfg.mode == Mode::Baseline) {
        h.system().mem().registerIndexRegion(
            sim::addrOf(a_.idxs().data(), 0),
            a_.idxs().size() * sizeof(Index));
    }
    plan::frontend::EinsumBindings fb;
    fb.csr["A"] = &a_;
    fb.mat["B"] = &b_;
    fb.mat["C"] = &c_;
    const Partition part =
        h.makeRunPartition(a_.rows(), a_.ptrs().data());
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] = part.range(c);
        plan::PlanState &st = out[static_cast<size_t>(c)];
        reserveOutput(st, ref_, beg, end);
        h.addPlan(c, compileSlice(kEinsum, fb, cfg, beg, end), st);
    }

    RunResult res = h.finish();
    verifySparse(res, part, out, ref_, Tolerance::Exact);
    return res;
}

void
SpmmWorkload::prepare(const std::string &inputId, Index scaleDiv)
{
    // Denser scaling, like SpMSpM: the output image is rows x kCols.
    a_ = tensor::matrixInput(inputId).generate(scaleDiv * 4);
    Rng rng(31);
    b_ = DenseMatrix(a_.cols(), kCols);
    for (Index k = 0; k < b_.rows(); ++k)
        for (Index j = 0; j < kCols; ++j)
            b_(k, j) = rng.nextValue(0.1, 1.0);

    // Every non-empty A row yields a full dense row of kCols entries.
    std::vector<Index> ptrs{0}, idxs;
    std::vector<Value> vals;
    for (Index i = 0; i < a_.rows(); ++i) {
        for (Index j = 0; j < kCols && a_.rowNnz(i) > 0; ++j) {
            Value v = 0.0;
            for (Index p = a_.rowBegin(i); p < a_.rowEnd(i); ++p) {
                const auto sp = static_cast<size_t>(p);
                v += a_.vals()[sp] * b_(a_.idxs()[sp], j);
            }
            idxs.push_back(j);
            vals.push_back(v);
        }
        ptrs.push_back(static_cast<Index>(idxs.size()));
    }
    ref_ = CsrMatrix(a_.rows(), kCols, std::move(ptrs), std::move(idxs),
                     std::move(vals));
}

RunResult
SpmmWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(a_.rows() > 0, "prepare() was not called");
    RunHarness h(cfg);
    const int cores = h.cores();
    std::vector<plan::PlanState> out(static_cast<size_t>(cores));

    if (cfg.mode == Mode::Baseline) {
        h.system().mem().registerIndexRegion(
            sim::addrOf(a_.idxs().data(), 0),
            a_.idxs().size() * sizeof(Index));
    }
    plan::frontend::EinsumBindings fb;
    fb.csr["A"] = &a_;
    fb.mat["B"] = &b_;
    const Partition part =
        h.makeRunPartition(a_.rows(), a_.ptrs().data());
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] = part.range(c);
        plan::PlanState &st = out[static_cast<size_t>(c)];
        reserveOutput(st, ref_, beg, end);
        h.addPlan(c, compileSlice(kEinsum, fb, cfg, beg, end), st);
    }

    RunResult res = h.finish();
    verifySparse(res, part, out, ref_, Tolerance::Exact);
    return res;
}

void
SpmmScatterWorkload::prepare(const std::string &inputId,
                             Index scaleDiv)
{
    a_ = tensor::matrixInput(inputId).generate(scaleDiv * 4);
    Rng rng(37);
    b_ = DenseMatrix(a_.cols(), kCols);
    for (Index k = 0; k < b_.rows(); ++k)
        for (Index j = 0; j < kCols; ++j)
            b_(k, j) = rng.nextValue(0.1, 1.0);

    // Deterministic permutation map (Fisher-Yates): the GNN-style
    // neighborhood reordering the scatter output models.
    const Index rows = a_.rows();
    map_.resize(static_cast<size_t>(rows));
    for (Index i = 0; i < rows; ++i)
        map_[static_cast<size_t>(i)] = i;
    for (Index i = rows - 1; i > 0; --i) {
        const auto j = static_cast<size_t>(
            rng.next() % static_cast<std::uint64_t>(i + 1));
        std::swap(map_[static_cast<size_t>(i)], map_[j]);
    }

    ref_ = DenseMatrix(rows, kCols, 0.0);
    for (Index i = 0; i < rows; ++i) {
        const Index zi = map_[static_cast<size_t>(i)];
        for (Index p = a_.rowBegin(i); p < a_.rowEnd(i); ++p) {
            const Index k = a_.idxs()[static_cast<size_t>(p)];
            const Value av = a_.vals()[static_cast<size_t>(p)];
            for (Index j = 0; j < kCols; ++j)
                ref_(zi, j) += av * b_(k, j);
        }
    }
}

RunResult
SpmmScatterWorkload::run(const RunConfig &cfg)
{
    TMU_ASSERT(a_.rows() > 0, "prepare() was not called");
    RunHarness h(cfg);
    const int cores = h.cores();
    std::vector<plan::PlanState> st(static_cast<size_t>(cores));
    // Per-core private accumulators, summed for verification (the map
    // is a permutation, so each Z row has exactly one writer, but the
    // private copies keep the pattern uniform with MTTKRP).
    std::vector<DenseMatrix> z;
    z.reserve(static_cast<size_t>(cores));
    for (int c = 0; c < cores; ++c)
        z.emplace_back(a_.rows(), kCols, 0.0);

    if (cfg.mode == Mode::Baseline) {
        h.system().mem().registerIndexRegion(
            sim::addrOf(a_.idxs().data(), 0),
            a_.idxs().size() * sizeof(Index));
    }
    const Partition part =
        h.makeRunPartition(a_.rows(), a_.ptrs().data());
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] = part.range(c);
        plan::frontend::EinsumBindings fb;
        fb.csr["A"] = &a_;
        fb.mat["B"] = &b_;
        fb.maps["m"] = &map_;
        fb.outMat = &z[static_cast<size_t>(c)];
        h.addPlan(c, compileSlice(kEinsum, fb, cfg, beg, end),
                  st[static_cast<size_t>(c)]);
    }

    RunResult res = h.finish();
    std::vector<const Value *> parts;
    for (const DenseMatrix &zc : z)
        parts.push_back(zc.data());
    verifyDense(res, ref_.data(), ref_.rows(), ref_.cols(), parts,
                Tolerance::Exact);
    return res;
}

} // namespace tmu::workloads
