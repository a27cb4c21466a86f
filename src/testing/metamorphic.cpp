#include "metamorphic.hpp"

#include <algorithm>
#include <numeric>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "kernels/spadd.hpp"
#include "kernels/spmv.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tensor/merge.hpp"
#include "workloads/registry.hpp"

namespace tmu::testing {

using tensor::Compare;
using tensor::CooTensor;
using tensor::CsrMatrix;
using tensor::DenseVector;
using tensor::FiberView;

namespace {

/** Scale every stored value by @p s (exact for powers of two). */
CooTensor
scaleCoo(const CooTensor &coo, Value s)
{
    CooTensor out = coo;
    for (Value &v : out.vals())
        v *= s;
    return out;
}

/** Apply row permutation @p perm: entry (i, j) moves to (perm[i], j). */
CooTensor
permuteRows(const CooTensor &coo, const std::vector<Index> &perm)
{
    CooTensor out({coo.dim(0), coo.dim(1)});
    for (Index p = 0; p < coo.nnz(); ++p) {
        out.push2(perm[static_cast<size_t>(coo.idx(0, p))],
                  coo.idx(1, p), coo.val(p));
    }
    out.sortAndCombine();
    return out;
}

/** Sorted structural union / intersection of two fibers. */
std::vector<Index>
fiberUnion(const FiberView &a, const FiberView &b)
{
    std::vector<Index> out;
    std::set_union(a.idxs.begin(), a.idxs.end(), b.idxs.begin(),
                   b.idxs.end(), std::back_inserter(out));
    return out;
}

std::vector<Index>
fiberIntersection(const FiberView &a, const FiberView &b)
{
    std::vector<Index> out;
    std::set_intersection(a.idxs.begin(), a.idxs.end(), b.idxs.begin(),
                          b.idxs.end(), std::back_inserter(out));
    return out;
}

void
checkMergeAlgebra(const CsrMatrix &a, std::vector<std::string> &fails)
{
    // Exercise every adjacent row pair (bounded; fuzz inputs are
    // small). The merge templates are the semantic core of the TMU's
    // TG mergers, so the set-algebra laws must hold exactly.
    const Index pairs = std::min<Index>(a.rows() - 1, 16);
    for (Index r = 0; r < pairs; ++r) {
        const FiberView fa = a.row(r);
        const FiberView fb = a.row(r + 1);

        std::vector<Index> disjCoords, conjCoords;
        std::vector<Value> disjSums, conjProds;
        tensor::disjunctiveMerge2(
            fa, fb, [&](Index c, LaneMask mask, auto &&values) {
                disjCoords.push_back(c);
                Value s = 0.0;
                for (unsigned f = 0; f < 2; ++f) {
                    if (mask.test(f))
                        s += values(f);
                }
                disjSums.push_back(s);
            });
        tensor::conjunctiveMerge2(fa, fb,
                                  [&](Index c, auto &&values) {
                                      conjCoords.push_back(c);
                                      conjProds.push_back(values(0) *
                                                          values(1));
                                  });

        if (disjCoords != fiberUnion(fa, fb)) {
            fails.push_back(detail::format(
                "merge-disj-union: rows %lld/%lld",
                static_cast<long long>(r),
                static_cast<long long>(r + 1)));
        }
        if (conjCoords != fiberIntersection(fa, fb)) {
            fails.push_back(detail::format(
                "merge-conj-intersection: rows %lld/%lld",
                static_cast<long long>(r),
                static_cast<long long>(r + 1)));
        }
        // conj(f, g) subset-of disj(f, g).
        if (!std::includes(disjCoords.begin(), disjCoords.end(),
                           conjCoords.begin(), conjCoords.end())) {
            fails.push_back(detail::format(
                "merge-conj-subset-disj: rows %lld/%lld",
                static_cast<long long>(r),
                static_cast<long long>(r + 1)));
        }
        // Values: disjunctive sums over the union equal a + b with
        // absent lanes as zero; conjunctive products match a direct
        // intersection walk. Both exact (no reassociation).
        {
            size_t pa = 0, pb = 0;
            bool ok = true;
            for (size_t q = 0; q < disjCoords.size() && ok; ++q) {
                Value wantSum = 0.0;
                if (pa < fa.idxs.size() &&
                    fa.idxs[pa] == disjCoords[q])
                    wantSum += fa.vals[pa++];
                if (pb < fb.idxs.size() &&
                    fb.idxs[pb] == disjCoords[q])
                    wantSum += fb.vals[pb++];
                ok = wantSum == disjSums[q];
            }
            if (!ok || pa != fa.idxs.size() || pb != fb.idxs.size()) {
                fails.push_back(detail::format(
                    "merge-disj-values: rows %lld/%lld",
                    static_cast<long long>(r),
                    static_cast<long long>(r + 1)));
            }
        }
        // disj(f, f) == f with both lanes active (doubled sum).
        {
            std::vector<Index> selfCoords;
            bool doubled = true;
            size_t q = 0;
            tensor::disjunctiveMerge2(
                fa, fa, [&](Index c, LaneMask mask, auto &&values) {
                    selfCoords.push_back(c);
                    if (!mask.test(0) || !mask.test(1) ||
                        values(0) != values(1)) {
                        doubled = false;
                    }
                    ++q;
                });
            if (!doubled ||
                selfCoords !=
                    std::vector<Index>(fa.idxs.begin(), fa.idxs.end())) {
                fails.push_back(detail::format(
                    "merge-disj-self: row %lld",
                    static_cast<long long>(r)));
            }
        }
    }
}

} // namespace

std::vector<std::string>
checkMatrixMetamorphic(const CooTensor &coo, std::uint64_t operandSeed,
                       const Compare &cmp)
{
    TMU_ASSERT(coo.order() == 2 && coo.isCanonical());
    std::vector<std::string> fails;
    auto fail = [&fails](std::string s) {
        if (!s.empty())
            fails.push_back(std::move(s));
    };
    const Compare exact = Compare::exact();
    Rng rng(operandSeed ^ 0xa5a5a5a5ULL);

    const CsrMatrix a = tensor::cooToCsr(coo);
    const Index rows = a.rows();
    const Index cols = a.cols();
    DenseVector b(cols);
    for (Index i = 0; i < cols; ++i)
        b[i] = rng.nextValue(-1.0, 1.0);
    const DenseVector y = kernels::spmvRef(a, b);

    // Scaling by exactly 2.0 only changes exponents: (2A)b == 2(Ab)
    // bit for bit.
    {
        const CsrMatrix a2 = tensor::cooToCsr(scaleCoo(coo, 2.0));
        const DenseVector y2 = kernels::spmvRef(a2, b);
        std::string err;
        for (Index i = 0; i < rows; ++i) {
            if (y2[i] != 2.0 * y[i]) {
                err = detail::format(
                    "spmv-scale2: [%lld] %.17g vs %.17g",
                    static_cast<long long>(i), y2[i], 2.0 * y[i]);
                break;
            }
        }
        fail(std::move(err));
    }

    // Row permutation moves whole rows; each row's dot product is the
    // same sum in the same order, so equality is exact.
    {
        std::vector<Index> perm(static_cast<size_t>(rows));
        std::iota(perm.begin(), perm.end(), Index{0});
        for (size_t i = perm.size(); i > 1; --i) {
            std::swap(perm[i - 1],
                      perm[static_cast<size_t>(rng.nextBounded(i))]);
        }
        const CsrMatrix ap = tensor::cooToCsr(permuteRows(coo, perm));
        const DenseVector yp = kernels::spmvRef(ap, b);
        std::string err;
        for (Index i = 0; i < rows; ++i) {
            if (yp[perm[static_cast<size_t>(i)]] != y[i]) {
                err = detail::format(
                    "spmv-permute: row %lld -> %lld %.17g vs %.17g",
                    static_cast<long long>(i),
                    static_cast<long long>(perm[static_cast<size_t>(i)]),
                    yp[perm[static_cast<size_t>(i)]], y[i]);
                break;
            }
        }
        fail(std::move(err));
    }

    // Transpose adjoint identity: b2 . (A b1) == (A^T b2) . b1, both
    // sides reassociated -> tolerance on the scalar.
    {
        DenseVector b2(rows);
        for (Index i = 0; i < rows; ++i)
            b2[i] = rng.nextValue(-1.0, 1.0);
        const DenseVector yt =
            kernels::spmvRef(tensor::transposeCsr(a), b2);
        Value lhs = 0.0, rhs = 0.0;
        for (Index i = 0; i < rows; ++i)
            lhs += b2[i] * y[i];
        for (Index i = 0; i < cols; ++i)
            rhs += yt[i] * b[i];
        Compare dotCmp = cmp;
        // The two sums share no intermediate; scale the tolerance by
        // the term count to keep hypersparse cancellation cases quiet.
        dotCmp.absTol = std::max(dotCmp.absTol,
                                 1e-12 * static_cast<double>(a.nnz() + 1));
        if (!dotCmp.close(lhs, rhs)) {
            fail(detail::format("spmv-adjoint: %.17g vs %.17g", lhs,
                                rhs));
        }
    }

    // SpAdd commutativity is exact; associativity reassociates one
    // addition per coordinate -> tolerance.
    {
        tensor::CsrGenConfig gc;
        gc.rows = rows;
        gc.cols = cols;
        gc.nnzPerRow = 2.0;
        gc.seed = rng.next();
        const CsrMatrix m2 = tensor::randomCsr(gc);
        gc.seed = rng.next();
        const CsrMatrix m3 = tensor::randomCsr(gc);
        fail(diffCsr("spadd-commute", kernels::spaddRef(a, m2),
                     kernels::spaddRef(m2, a), exact));
        fail(diffCsr("spadd-assoc",
                     kernels::spaddRef(kernels::spaddRef(a, m2), m3),
                     kernels::spaddRef(a, kernels::spaddRef(m2, m3)),
                     cmp));
    }

    checkMergeAlgebra(a, fails);
    return fails;
}

std::vector<std::string>
checkSimInvariants(const std::string &wlName, const std::string &inputId,
                   Index scaleDiv)
{
    std::vector<std::string> fails;
    auto wl = workloads::tryMakeWorkload(wlName);
    if (!wl.ok()) {
        fails.push_back("sim-invariant: " + wl.error().str());
        return fails;
    }
    wl.value()->prepare(inputId, scaleDiv);

    workloads::RunConfig rc;
    rc.mode = workloads::Mode::Baseline;
    const auto r1 = wl.value()->run(rc);
    const auto r2 = wl.value()->run(rc);
    workloads::RunConfig rd = rc;
    rd.system.schedDense = true;
    const auto r3 = wl.value()->run(rd);

    auto compareStats = [&](const char *what,
                            const stats::StatSnapshot &sa,
                            const stats::StatSnapshot &sb,
                            bool ignoreScheduler) {
        if (sa.entries.size() != sb.entries.size()) {
            fails.push_back(detail::format(
                "%s: %zu stats vs %zu", what, sa.entries.size(),
                sb.entries.size()));
            return;
        }
        for (size_t i = 0; i < sa.entries.size(); ++i) {
            const auto &ea = sa.entries[i];
            const auto &eb = sb.entries[i];
            if (ea.name != eb.name) {
                fails.push_back(detail::format(
                    "%s: stat %zu name '%s' vs '%s'", what, i,
                    ea.name.c_str(), eb.name.c_str()));
                return;
            }
            if (ignoreScheduler &&
                ea.name.rfind("sim.scheduler.", 0) == 0) {
                continue;
            }
            if (ea.u != eb.u || ea.f != eb.f) {
                fails.push_back(detail::format(
                    "%s: stat '%s' %.17g vs %.17g", what,
                    ea.name.c_str(), ea.value(), eb.value()));
            }
        }
    };

    if (!r1.verified || !r2.verified || !r3.verified) {
        fails.push_back(detail::format(
            "sim-invariant %s/%s: verification failed (%d/%d/%d)",
            wlName.c_str(), inputId.c_str(), r1.verified ? 1 : 0,
            r2.verified ? 1 : 0, r3.verified ? 1 : 0));
    }
    if (r1.sim.cycles != r2.sim.cycles) {
        fails.push_back(detail::format(
            "run-twice %s/%s: %llu cycles vs %llu", wlName.c_str(),
            inputId.c_str(),
            static_cast<unsigned long long>(r1.sim.cycles),
            static_cast<unsigned long long>(r2.sim.cycles)));
    }
    compareStats("run-twice", r1.stats, r2.stats, false);
    if (r1.sim.cycles != r3.sim.cycles) {
        fails.push_back(detail::format(
            "event-vs-dense %s/%s: %llu cycles vs %llu", wlName.c_str(),
            inputId.c_str(),
            static_cast<unsigned long long>(r1.sim.cycles),
            static_cast<unsigned long long>(r3.sim.cycles)));
    }
    compareStats("event-vs-dense", r1.stats, r3.stats, true);
    return fails;
}

} // namespace tmu::testing
