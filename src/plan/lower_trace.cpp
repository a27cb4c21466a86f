/**
 * @file
 * Plan -> baseline SVE micro-op trace. One coroutine per PlanKind
 * emits the software kernel's loads (sizes and address dependencies),
 * flop/iop/branch shape and branch-PC numbering (via the plan's
 * TraceShape); PlanPinned.* in tests/plan_test.cpp pins each compiled
 * kernel's stream. lowerTrace itself is a plain dispatcher: it copies
 * the trace knobs and binding pointers out of the plan, so only the
 * bound tensors and the sink buffers must outlive the returned
 * coroutine.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/log.hpp"
#include "plan/lower.hpp"

namespace tmu::plan {

using sim::MicroOp;
using sim::SimdConfig;
using sim::Trace;
using sim::addrOf;
using tensor::CooTensor;
using tensor::CsrMatrix;
using tensor::DcsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;

namespace {

Trace
traceRowReduce(const CsrMatrix &a, const DenseVector &b,
               DenseVector &out, Index rowBegin, Index rowEnd,
               TraceShape shape, bool rowUpdate, double scale,
               double bias, SimdConfig simd)
{
    const std::uint16_t pcOuter = shape.pcs[0];
    const std::uint16_t pcInner = shape.pcs[1];
    const int vl = simd.lanes();

    for (Index r = rowBegin; r < rowEnd; ++r) {
        co_yield MicroOp::load(addrOf(a.ptrs().data(), r), 8);
        co_yield MicroOp::load(addrOf(a.ptrs().data(), r + 1), 8);
        if (shape.headerIop)
            co_yield MicroOp::iop();

        const Index pb = a.rowBegin(r), pe = a.rowEnd(r);
        Value sum = 0.0;
        for (Index p = pb; p < pe; p += vl) {
            const int n = static_cast<int>(std::min<Index>(vl, pe - p));
            co_yield MicroOp::load(addrOf(a.idxs().data(), p),
                                   static_cast<std::uint8_t>(n * 8));
            co_yield MicroOp::load(addrOf(a.vals().data(), p),
                                   static_cast<std::uint8_t>(n * 8));

            // Gather b[idxs]: per-lane access with an address
            // dependency on the idx vector load above.
            for (int lane = 0; lane < n; ++lane) {
                const Index col =
                    a.idxs()[static_cast<size_t>(p + lane)];
                co_yield MicroOp::load(
                    addrOf(b.data(), col), 8,
                    static_cast<std::uint8_t>(lane + 2),
                    addrOf(a.idxs().data(), p + lane));
                sum += a.vals()[static_cast<size_t>(p + lane)] * b[col];
            }
            co_yield MicroOp::flop(static_cast<std::uint16_t>(2 * n));
            co_yield MicroOp::branch(pcInner, p + vl < pe);
        }

        // Horizontal reduce, optional row update, result store.
        if (pe > pb)
            co_yield MicroOp::flop(static_cast<std::uint16_t>(vl));
        if (rowUpdate)
            co_yield MicroOp::flop(2);
        out[r] = rowUpdate ? bias + scale * sum : sum;
        co_yield MicroOp::store(addrOf(out.data(), r), 8);
        co_yield MicroOp::branch(pcOuter, r + 1 < rowEnd);
    }
    co_yield MicroOp::halt();
}

Trace
traceWorkspaceSpgemm(const CsrMatrix &a, const CsrMatrix &b,
                     TraceSinks io, Index rowBegin, Index rowEnd,
                     TraceShape shape, SimdConfig simd)
{
    const std::uint16_t pcRowA = shape.pcs[0];
    const std::uint16_t pcNnzA = shape.pcs[1];
    const std::uint16_t pcRowB = shape.pcs[2];
    const std::uint16_t pcSort = shape.pcs[4];
    const std::uint16_t pcEmit = shape.pcs[5];
    const int vl = simd.lanes();

    std::vector<Value> acc(static_cast<size_t>(b.cols()), 0.0);
    std::vector<char> seen(static_cast<size_t>(b.cols()), 0);
    std::vector<Index> touched;

    for (Index i = rowBegin; i < rowEnd; ++i) {
        co_yield MicroOp::load(addrOf(a.ptrs().data(), i), 8);
        co_yield MicroOp::load(addrOf(a.ptrs().data(), i + 1), 8);
        touched.clear();

        for (Index p = a.rowBegin(i); p < a.rowEnd(i); ++p) {
            const Index k = a.idxs()[static_cast<size_t>(p)];
            const Value av = a.vals()[static_cast<size_t>(p)];
            co_yield MicroOp::load(addrOf(a.idxs().data(), p), 8);
            co_yield MicroOp::load(addrOf(a.vals().data(), p), 8);
            // B row lookup depends on the idx load above.
            co_yield MicroOp::load(addrOf(b.ptrs().data(), k), 8, 2,
                                   addrOf(a.idxs().data(), p));
            co_yield MicroOp::load(addrOf(b.ptrs().data(), k + 1), 8, 3,
                                   addrOf(a.idxs().data(), p));

            for (Index q = b.rowBegin(k); q < b.rowEnd(k); q += vl) {
                const int n = static_cast<int>(
                    std::min<Index>(vl, b.rowEnd(k) - q));
                co_yield MicroOp::load(addrOf(b.idxs().data(), q),
                                       static_cast<std::uint8_t>(n * 8));
                co_yield MicroOp::load(addrOf(b.vals().data(), q),
                                       static_cast<std::uint8_t>(n * 8));
                co_yield MicroOp::flop(static_cast<std::uint16_t>(n));

                // Workspace scatter-accumulate with bitmap novelty.
                for (int lane = 0; lane < n; ++lane) {
                    const auto j = static_cast<size_t>(
                        b.idxs()[static_cast<size_t>(q + lane)]);
                    co_yield MicroOp::load(
                        addrOf(acc.data(), static_cast<Index>(j)), 8,
                        static_cast<std::uint8_t>(2 * lane + 3));
                    co_yield MicroOp::store(
                        addrOf(acc.data(), static_cast<Index>(j)), 8);
                    if (!seen[j]) {
                        seen[j] = 1;
                        touched.push_back(static_cast<Index>(j));
                    }
                    acc[j] +=
                        av * b.vals()[static_cast<size_t>(q + lane)];
                }
                co_yield MicroOp::flop(
                    static_cast<std::uint16_t>(2 * n));
                co_yield MicroOp::iop();
                co_yield MicroOp::branch(pcRowB, q + vl < b.rowEnd(k));
            }
            co_yield MicroOp::branch(pcNnzA, p + 1 < a.rowEnd(i));
        }

        // Sort touched columns: ~n log2 n compare/branch pairs.
        std::sort(touched.begin(), touched.end());
        const auto tn = static_cast<double>(touched.size());
        const auto cmps =
            static_cast<Index>(tn > 1.0 ? tn * std::log2(tn) : 0.0);
        for (Index c = 0; c < cmps; ++c) {
            co_yield MicroOp::iop();
            co_yield MicroOp::branch(pcSort, (c & 1) != 0);
        }

        for (size_t t = 0; t < touched.size(); ++t) {
            const auto j = static_cast<size_t>(touched[t]);
            co_yield MicroOp::load(
                addrOf(acc.data(), static_cast<Index>(j)), 8);
            io.idxs->push_back(static_cast<Index>(j));
            io.vals->push_back(acc[j]);
            acc[j] = 0.0;
            seen[j] = 0;
            co_yield MicroOp::store(
                addrOf(io.vals->data(),
                       static_cast<Index>(io.vals->size() - 1)),
                8);
            co_yield MicroOp::store(
                addrOf(acc.data(), static_cast<Index>(j)), 8);
            co_yield MicroOp::branch(pcEmit, t + 1 < touched.size());
        }
        io.rowNnz->push_back(static_cast<Index>(touched.size()));
        co_yield MicroOp::branch(pcRowA, i + 1 < rowEnd);
    }
    co_yield MicroOp::halt();
}

Trace
traceKwayMerge(const std::vector<DcsrMatrix> &inputs, TraceSinks io,
               Index rowBegin, Index rowEnd, TraceShape shape)
{
    const std::uint16_t pcWhich = shape.pcs[0];
    const std::uint16_t pcKActive = shape.pcs[1];
    const std::uint16_t pcKLoop = shape.pcs[2];
    const std::uint16_t pcKRow = shape.pcs[3];
    const auto k = inputs.size();

    std::vector<Index> rowCur(k, 0);
    for (size_t m = 0; m < k; ++m) {
        const auto &in = inputs[m];
        while (rowCur[m] < in.numStoredRows() &&
               in.storedRowCoord(rowCur[m]) < rowBegin) {
            ++rowCur[m];
        }
    }

    std::vector<Index> pos(k), end(k);
    for (Index r = rowBegin; r < rowEnd; ++r) {
        // Row-level merge: gather next stored-row coordinates, compare
        // to r as a vector, load row pointers of the matching lanes.
        int activeLanes = 0;
        for (size_t m = 0; m < k; ++m) {
            const auto &in = inputs[m];
            if (rowCur[m] < in.numStoredRows()) {
                co_yield MicroOp::load(
                    addrOf(in.rowIdxs().data(), rowCur[m]), 8);
            }
            const bool active = rowCur[m] < in.numStoredRows() &&
                                in.storedRowCoord(rowCur[m]) == r;
            if (active) {
                co_yield MicroOp::load(
                    addrOf(in.rowPtrs().data(), rowCur[m]), 8);
                co_yield MicroOp::load(
                    addrOf(in.rowPtrs().data(), rowCur[m] + 1), 8);
                pos[m] = in.rowPtrs()[static_cast<size_t>(rowCur[m])];
                end[m] =
                    in.rowPtrs()[static_cast<size_t>(rowCur[m] + 1)];
                ++rowCur[m];
                ++activeLanes;
            } else {
                pos[m] = end[m] = 0;
            }
        }
        co_yield MicroOp::iop(); // vector compare-to-mask
        co_yield MicroOp::branch(pcKActive, activeLanes > 0);

        // Column-level K-way merge, SVE-assisted.
        Index emitted = 0;
        for (;;) {
            Index minC = kInvalidIndex;
            int hits = 0;
            for (size_t m = 0; m < k; ++m) {
                if (pos[m] < end[m]) {
                    co_yield MicroOp::load(
                        addrOf(inputs[m].colIdxs().data(), pos[m]), 8);
                    co_yield MicroOp::iop();
                    const Index c =
                        inputs[m]
                            .colIdxs()[static_cast<size_t>(pos[m])];
                    if (minC == kInvalidIndex || c < minC)
                        minC = c;
                }
            }
            // Min-selection tree: the last two levels resolve with
            // data-dependent picks.
            for (size_t lvl = 1; lvl < k && lvl <= 2; lvl <<= 1) {
                co_yield MicroOp::iop();
                co_yield MicroOp::branch(pcWhich,
                                         ((minC >> lvl) & 1) != 0);
            }
            co_yield MicroOp::branch(pcKLoop, minC != kInvalidIndex);
            if (minC == kInvalidIndex)
                break;

            Value sum = 0.0;
            for (size_t m = 0; m < k; ++m) {
                const bool hit =
                    pos[m] < end[m] &&
                    inputs[m]
                            .colIdxs()[static_cast<size_t>(pos[m])] ==
                        minC;
                if (hit) {
                    co_yield MicroOp::load(
                        addrOf(inputs[m].vals().data(), pos[m]), 8);
                    sum +=
                        inputs[m].vals()[static_cast<size_t>(pos[m])];
                    ++pos[m];
                    ++hits;
                }
            }
            // Masked vector sum, then the cursor-advance loop.
            co_yield MicroOp::flop(static_cast<std::uint16_t>(hits));
            for (int h = 0; h < hits; ++h) {
                co_yield MicroOp::iop();
                co_yield MicroOp::branch(pcKActive, h + 1 < hits);
            }
            io.idxs->push_back(minC);
            io.vals->push_back(sum);
            ++emitted;
            co_yield MicroOp::store(
                addrOf(io.vals->data(),
                       static_cast<Index>(io.vals->size() - 1)),
                8);
        }
        io.rowNnz->push_back(emitted);
        co_yield MicroOp::branch(pcKRow, r + 1 < rowEnd);
    }
    co_yield MicroOp::halt();
}

Trace
traceIntersect(const CsrMatrix &l, TraceSinks io, Index rowBegin,
               Index rowEnd, TraceShape shape)
{
    const std::uint16_t pcRow = shape.pcs[0];
    const std::uint16_t pcEdge = shape.pcs[1];
    const std::uint16_t pcCmp = shape.pcs[2];
    const std::uint16_t pcLoop = shape.pcs[3];

    for (Index i = rowBegin; i < rowEnd; ++i) {
        co_yield MicroOp::load(addrOf(l.ptrs().data(), i), 8);
        co_yield MicroOp::load(addrOf(l.ptrs().data(), i + 1), 8);

        for (Index p = l.rowBegin(i); p < l.rowEnd(i); ++p) {
            co_yield MicroOp::load(addrOf(l.idxs().data(), p), 8);
            const Index j = l.idxs()[static_cast<size_t>(p)];
            co_yield MicroOp::load(addrOf(l.ptrs().data(), j), 8, 1);
            co_yield MicroOp::load(addrOf(l.ptrs().data(), j + 1), 8,
                                   2);

            // Two-pointer intersection of rows i and j.
            Index pa = l.rowBegin(i), pb = l.rowBegin(j);
            const Index ea = l.rowEnd(i), eb = l.rowEnd(j);
            while (pa < ea && pb < eb) {
                co_yield MicroOp::load(addrOf(l.idxs().data(), pa), 8);
                co_yield MicroOp::load(addrOf(l.idxs().data(), pb), 8);
                const Index ca = l.idxs()[static_cast<size_t>(pa)];
                const Index cb = l.idxs()[static_cast<size_t>(pb)];
                co_yield MicroOp::iop();
                co_yield MicroOp::branch(pcCmp, ca <= cb);
                if (ca == cb) {
                    ++*io.count;
                    co_yield MicroOp::iop();
                    ++pa;
                    ++pb;
                } else if (ca < cb) {
                    ++pa;
                } else {
                    ++pb;
                }
                co_yield MicroOp::branch(pcLoop, pa < ea && pb < eb);
            }
            co_yield MicroOp::branch(pcEdge, p + 1 < l.rowEnd(i));
        }
        co_yield MicroOp::branch(pcRow, i + 1 < rowEnd);
    }
    co_yield MicroOp::halt();
}

Trace
traceCooRankFma(const CooTensor &a, const DenseMatrix &b,
                const DenseMatrix &c, DenseMatrix &z, Index nnzBegin,
                Index nnzEnd, TraceShape shape, SimdConfig simd)
{
    const std::uint16_t pcNnz = shape.pcs[0];
    const std::uint16_t pcRank = shape.pcs[1];
    const Index rank = b.cols();
    const int vl = simd.lanes();

    for (Index p = nnzBegin; p < nnzEnd; ++p) {
        co_yield MicroOp::load(addrOf(a.idxs(0).data(), p), 8);
        co_yield MicroOp::load(addrOf(a.idxs(1).data(), p), 8);
        co_yield MicroOp::load(addrOf(a.idxs(2).data(), p), 8);
        co_yield MicroOp::load(addrOf(a.vals().data(), p), 8);

        const Index i = a.idx(0, p);
        const Index k = a.idx(1, p);
        const Index l = a.idx(2, p);
        const Value v = a.val(p);
        const Value *bk = b.row(k);
        const Value *cl = c.row(l);
        Value *zi = z.row(i);

        // Rank loop, vectorized: factor-row addresses depend on the
        // coordinate loads; chunk c starts 4 + 6c ops after them.
        int chunk = 0;
        for (Index j = 0; j < rank; j += vl, ++chunk) {
            const int n =
                static_cast<int>(std::min<Index>(vl, rank - j));
            const int back = 6 * chunk;
            co_yield MicroOp::load(
                addrOf(b.data(), k * rank + j),
                static_cast<std::uint8_t>(n * 8),
                static_cast<std::uint8_t>(std::min(back + 3, 255)));
            co_yield MicroOp::load(
                addrOf(c.data(), l * rank + j),
                static_cast<std::uint8_t>(n * 8),
                static_cast<std::uint8_t>(std::min(back + 3, 255)));
            co_yield MicroOp::load(
                addrOf(z.data(), i * rank + j),
                static_cast<std::uint8_t>(n * 8),
                static_cast<std::uint8_t>(std::min(back + 6, 255)));
            co_yield MicroOp::flop(static_cast<std::uint16_t>(3 * n));
            for (int lane = 0; lane < n; ++lane)
                zi[j + lane] += v * bk[j + lane] * cl[j + lane];
            co_yield MicroOp::store(addrOf(z.data(), i * rank + j),
                                    static_cast<std::uint8_t>(n * 8));
            co_yield MicroOp::branch(pcRank, j + vl < rank);
        }
        co_yield MicroOp::branch(pcNnz, p + 1 < nnzEnd);
    }
    co_yield MicroOp::halt();
}

Trace
traceSddmm(const CsrMatrix &a, const DenseMatrix &b,
           const DenseMatrix &c, TraceSinks io, Index rowBegin,
           Index rowEnd, TraceShape shape, SimdConfig simd)
{
    const std::uint16_t pcRow = shape.pcs[0];
    const std::uint16_t pcEdge = shape.pcs[1];
    const std::uint16_t pcRank = shape.pcs[2];
    const Index rank = b.cols();
    const int vl = simd.lanes();

    for (Index i = rowBegin; i < rowEnd; ++i) {
        co_yield MicroOp::load(addrOf(a.ptrs().data(), i), 8);
        co_yield MicroOp::load(addrOf(a.ptrs().data(), i + 1), 8);

        Index emitted = 0;
        for (Index p = a.rowBegin(i); p < a.rowEnd(i); ++p) {
            co_yield MicroOp::load(addrOf(a.idxs().data(), p), 8);
            co_yield MicroOp::load(addrOf(a.vals().data(), p), 8);
            const Index col = a.idxs()[static_cast<size_t>(p)];
            const Value *bi = b.row(i);
            const Value *cj = c.row(col);

            // Vectorized dot of the two dense factor rows; the C-row
            // address depends on the column-index load above.
            Value dot = 0.0;
            int chunk = 0;
            for (Index j = 0; j < rank; j += vl, ++chunk) {
                const int n =
                    static_cast<int>(std::min<Index>(vl, rank - j));
                const int back = 4 * chunk;
                co_yield MicroOp::load(
                    addrOf(b.data(), i * rank + j),
                    static_cast<std::uint8_t>(n * 8));
                co_yield MicroOp::load(
                    addrOf(c.data(), col * rank + j),
                    static_cast<std::uint8_t>(n * 8),
                    static_cast<std::uint8_t>(std::min(back + 3, 255)),
                    addrOf(a.idxs().data(), p));
                for (int lane = 0; lane < n; ++lane)
                    dot += bi[j + lane] * cj[j + lane];
                co_yield MicroOp::flop(
                    static_cast<std::uint16_t>(2 * n));
                co_yield MicroOp::branch(pcRank, j + vl < rank);
            }
            if (rank > 0)
                co_yield MicroOp::flop(static_cast<std::uint16_t>(vl));

            // Scale by the sampled value, emit the output triplet.
            co_yield MicroOp::flop(1);
            io.idxs->push_back(col);
            io.vals->push_back(a.vals()[static_cast<size_t>(p)] * dot);
            ++emitted;
            co_yield MicroOp::store(
                addrOf(io.vals->data(),
                       static_cast<Index>(io.vals->size() - 1)),
                8);
            co_yield MicroOp::branch(pcEdge, p + 1 < a.rowEnd(i));
        }
        io.rowNnz->push_back(emitted);
        co_yield MicroOp::branch(pcRow, i + 1 < rowEnd);
    }
    co_yield MicroOp::halt();
}

Trace
traceSpmmWorkspace(const CsrMatrix &a, const DenseMatrix &b,
                   TraceSinks io, Index rowBegin, Index rowEnd,
                   TraceShape shape, SimdConfig simd)
{
    const std::uint16_t pcRow = shape.pcs[0];
    const std::uint16_t pcNnz = shape.pcs[1];
    const std::uint16_t pcCol = shape.pcs[2];
    const Index cols = b.cols();
    const int vl = simd.lanes();

    std::vector<Value> acc(static_cast<size_t>(cols), 0.0);

    for (Index i = rowBegin; i < rowEnd; ++i) {
        co_yield MicroOp::load(addrOf(a.ptrs().data(), i), 8);
        co_yield MicroOp::load(addrOf(a.ptrs().data(), i + 1), 8);
        if (a.rowBegin(i) == a.rowEnd(i)) {
            io.rowNnz->push_back(0);
            co_yield MicroOp::branch(pcRow, i + 1 < rowEnd);
            continue;
        }

        std::fill(acc.begin(), acc.end(), 0.0);
        for (Index p = a.rowBegin(i); p < a.rowEnd(i); ++p) {
            const Index k = a.idxs()[static_cast<size_t>(p)];
            const Value av = a.vals()[static_cast<size_t>(p)];
            co_yield MicroOp::load(addrOf(a.idxs().data(), p), 8);
            co_yield MicroOp::load(addrOf(a.vals().data(), p), 8);

            // Dense axpy of B row k into the row workspace; the B-row
            // address depends on the column-index load above.
            const Value *bk = b.row(k);
            for (Index j = 0; j < cols; j += vl) {
                const int n =
                    static_cast<int>(std::min<Index>(vl, cols - j));
                co_yield MicroOp::load(
                    addrOf(b.data(), k * cols + j),
                    static_cast<std::uint8_t>(n * 8), 2,
                    addrOf(a.idxs().data(), p));
                co_yield MicroOp::load(
                    addrOf(acc.data(), j),
                    static_cast<std::uint8_t>(n * 8));
                for (int lane = 0; lane < n; ++lane)
                    acc[static_cast<size_t>(j + lane)] +=
                        av * bk[j + lane];
                co_yield MicroOp::flop(
                    static_cast<std::uint16_t>(2 * n));
                co_yield MicroOp::store(
                    addrOf(acc.data(), j),
                    static_cast<std::uint8_t>(n * 8));
                co_yield MicroOp::branch(pcCol, j + vl < cols);
            }
            co_yield MicroOp::branch(pcNnz, p + 1 < a.rowEnd(i));
        }

        // A non-empty row of the dense product touches every column:
        // flush the full workspace in vector chunks.
        for (Index j = 0; j < cols; j += vl) {
            const int n =
                static_cast<int>(std::min<Index>(vl, cols - j));
            co_yield MicroOp::load(addrOf(acc.data(), j),
                                   static_cast<std::uint8_t>(n * 8));
            for (int lane = 0; lane < n; ++lane) {
                io.idxs->push_back(j + lane);
                io.vals->push_back(
                    acc[static_cast<size_t>(j + lane)]);
            }
            co_yield MicroOp::store(
                addrOf(io.vals->data(),
                       static_cast<Index>(io.vals->size() - n)),
                static_cast<std::uint8_t>(n * 8));
            co_yield MicroOp::branch(pcCol, j + vl < cols);
        }
        io.rowNnz->push_back(cols);
        co_yield MicroOp::branch(pcRow, i + 1 < rowEnd);
    }
    co_yield MicroOp::halt();
}

Trace
traceSpmmScatter(const CsrMatrix &a, const DenseMatrix &b,
                 const std::vector<Index> &map, DenseMatrix &z,
                 Index rowBegin, Index rowEnd, TraceShape shape,
                 SimdConfig simd)
{
    const std::uint16_t pcRow = shape.pcs[0];
    const std::uint16_t pcNnz = shape.pcs[1];
    const std::uint16_t pcCol = shape.pcs[2];
    const Index cols = b.cols();
    const int vl = simd.lanes();

    for (Index i = rowBegin; i < rowEnd; ++i) {
        co_yield MicroOp::load(addrOf(a.ptrs().data(), i), 8);
        co_yield MicroOp::load(addrOf(a.ptrs().data(), i + 1), 8);
        co_yield MicroOp::load(addrOf(map.data(), i), 8);
        const Index zi = map[static_cast<size_t>(i)];
        Value *zrow = z.row(zi);

        for (Index p = a.rowBegin(i); p < a.rowEnd(i); ++p) {
            const Index k = a.idxs()[static_cast<size_t>(p)];
            const Value av = a.vals()[static_cast<size_t>(p)];
            co_yield MicroOp::load(addrOf(a.idxs().data(), p), 8);
            co_yield MicroOp::load(addrOf(a.vals().data(), p), 8);

            // Dense axpy of B row k into the mapped output row; the
            // B-row address depends on the column-index load, the Z-row
            // address on the map load in the row header.
            const Value *bk = b.row(k);
            for (Index j = 0; j < cols; j += vl) {
                const int n =
                    static_cast<int>(std::min<Index>(vl, cols - j));
                co_yield MicroOp::load(
                    addrOf(b.data(), k * cols + j),
                    static_cast<std::uint8_t>(n * 8), 2,
                    addrOf(a.idxs().data(), p));
                co_yield MicroOp::load(
                    addrOf(z.data(), zi * cols + j),
                    static_cast<std::uint8_t>(n * 8));
                for (int lane = 0; lane < n; ++lane)
                    zrow[j + lane] += av * bk[j + lane];
                co_yield MicroOp::flop(
                    static_cast<std::uint16_t>(2 * n));
                co_yield MicroOp::store(
                    addrOf(z.data(), zi * cols + j),
                    static_cast<std::uint8_t>(n * 8));
                co_yield MicroOp::branch(pcCol, j + vl < cols);
            }
            co_yield MicroOp::branch(pcNnz, p + 1 < a.rowEnd(i));
        }
        co_yield MicroOp::branch(pcRow, i + 1 < rowEnd);
    }
    co_yield MicroOp::halt();
}

} // namespace

sim::Trace
lowerTrace(const PlanSpec &plan, const TraceSinks &io,
           sim::SimdConfig simd)
{
    switch (plan.kind) {
    case PlanKind::RowReduce:
        TMU_ASSERT(plan.trace.pcs.size() >= 2 && plan.bind.a &&
                       plan.bind.x && plan.bind.out,
                   "plan '%s': RowReduce trace bindings incomplete",
                   plan.name.c_str());
        return traceRowReduce(*plan.bind.a, *plan.bind.x,
                              *plan.bind.out, plan.beg, plan.end,
                              plan.trace, plan.bind.rowUpdate,
                              plan.bind.scale, plan.bind.bias, simd);
    case PlanKind::WorkspaceSpGEMM:
        TMU_ASSERT(plan.trace.pcs.size() >= 6 && plan.bind.a &&
                       plan.bind.b && io.idxs && io.vals && io.rowNnz,
                   "plan '%s': SpGEMM trace bindings incomplete",
                   plan.name.c_str());
        return traceWorkspaceSpgemm(*plan.bind.a, *plan.bind.b, io,
                                    plan.beg, plan.end, plan.trace,
                                    simd);
    case PlanKind::KWayMerge:
        TMU_ASSERT(plan.trace.pcs.size() >= 4 && plan.bind.parts &&
                       io.idxs && io.vals && io.rowNnz,
                   "plan '%s': KWayMerge trace bindings incomplete",
                   plan.name.c_str());
        return traceKwayMerge(*plan.bind.parts, io, plan.beg, plan.end,
                              plan.trace);
    case PlanKind::Intersect:
        TMU_ASSERT(plan.trace.pcs.size() >= 4 && plan.bind.a &&
                       io.count,
                   "plan '%s': Intersect trace bindings incomplete",
                   plan.name.c_str());
        return traceIntersect(*plan.bind.a, io, plan.beg, plan.end,
                              plan.trace);
    case PlanKind::CooRankFma:
        TMU_ASSERT(plan.trace.pcs.size() >= 2 && plan.bind.t &&
                       plan.bind.bm && plan.bind.cm && plan.bind.z,
                   "plan '%s': CooRankFma trace bindings incomplete",
                   plan.name.c_str());
        return traceCooRankFma(*plan.bind.t, *plan.bind.bm,
                               *plan.bind.cm, *plan.bind.z, plan.beg,
                               plan.end, plan.trace, simd);
    case PlanKind::Sddmm:
        TMU_ASSERT(plan.trace.pcs.size() >= 3 && plan.bind.a &&
                       plan.bind.bm && plan.bind.cm && io.idxs &&
                       io.vals && io.rowNnz,
                   "plan '%s': SDDMM trace bindings incomplete",
                   plan.name.c_str());
        return traceSddmm(*plan.bind.a, *plan.bind.bm, *plan.bind.cm,
                          io, plan.beg, plan.end, plan.trace, simd);
    case PlanKind::SpmmWorkspace:
        TMU_ASSERT(plan.trace.pcs.size() >= 3 && plan.bind.a &&
                       plan.bind.bm && io.idxs && io.vals && io.rowNnz,
                   "plan '%s': SpMM trace bindings incomplete",
                   plan.name.c_str());
        return traceSpmmWorkspace(*plan.bind.a, *plan.bind.bm, io,
                                  plan.beg, plan.end, plan.trace, simd);
    case PlanKind::SpmmScatter:
        TMU_ASSERT(plan.trace.pcs.size() >= 3 && plan.bind.a &&
                       plan.bind.bm && plan.bind.map && plan.bind.z,
                   "plan '%s': SpMM-SC trace bindings incomplete",
                   plan.name.c_str());
        return traceSpmmScatter(*plan.bind.a, *plan.bind.bm,
                                *plan.bind.map, *plan.bind.z, plan.beg,
                                plan.end, plan.trace, simd);
    }
    TMU_PANIC("plan '%s': unknown plan kind", plan.name.c_str());
}

} // namespace tmu::plan
