#include "spadd.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "tensor/merge.hpp"

namespace tmu::kernels {

using sim::MicroOp;
using sim::SimdConfig;
using sim::Trace;
using sim::addrOf;
using tensor::CsrMatrix;
using tensor::DcsrMatrix;
using tensor::FiberView;

tensor::CsrMatrix
spaddRef(const CsrMatrix &a, const CsrMatrix &b)
{
    TMU_ASSERT(a.rows() == b.rows() && a.cols() == b.cols());
    std::vector<Index> ptrs{0};
    std::vector<Index> idxs;
    std::vector<Value> vals;
    for (Index r = 0; r < a.rows(); ++r) {
        tensor::disjunctiveMerge2(a.row(r), b.row(r),
            [&](Index c, LaneMask m, auto getVal) {
                Value v = 0.0;
                if (m.test(0))
                    v += getVal(0);
                if (m.test(1))
                    v += getVal(1);
                idxs.push_back(c);
                vals.push_back(v);
            });
        ptrs.push_back(static_cast<Index>(idxs.size()));
    }
    return CsrMatrix(a.rows(), a.cols(), std::move(ptrs), std::move(idxs),
                     std::move(vals));
}

tensor::CsrMatrix
spkaddRef(const std::vector<DcsrMatrix> &inputs)
{
    TMU_ASSERT(!inputs.empty());
    const Index rows = inputs.front().rows();
    const Index cols = inputs.front().cols();
    for (const auto &m : inputs)
        TMU_ASSERT(m.rows() == rows && m.cols() == cols);

    // Per input, a cursor over its stored rows (hierarchical merge:
    // first the compressed row dimension, then the column fibers).
    std::vector<Index> cursor(inputs.size(), 0);
    std::vector<Index> ptrs{0};
    std::vector<Index> idxs;
    std::vector<Value> vals;

    for (Index r = 0; r < rows; ++r) {
        // Row-level disjunctive step: inputs whose next stored row is r.
        std::vector<FiberView> fibers;
        for (size_t m = 0; m < inputs.size(); ++m) {
            const auto &in = inputs[m];
            if (cursor[m] < in.numStoredRows() &&
                in.storedRowCoord(cursor[m]) == r) {
                fibers.push_back(in.storedRow(cursor[m]));
                ++cursor[m];
            }
        }
        tensor::disjunctiveMerge(std::span<const FiberView>(fibers),
            [&](Index c, LaneMask mask, auto getVal) {
                Value v = 0.0;
                for (unsigned f = 0; f < fibers.size(); ++f) {
                    if (mask.test(f))
                        v += getVal(f);
                }
                idxs.push_back(c);
                vals.push_back(v);
            });
        ptrs.push_back(static_cast<Index>(idxs.size()));
    }
    return CsrMatrix(rows, cols, std::move(ptrs), std::move(idxs),
                     std::move(vals));
}

namespace {

enum SpaddPc : std::uint16_t {
    kPcRow = 20,
    kPcWhich = 21,  //!< data-dependent: which fiber holds the min
    kPcEqual = 22,  //!< data-dependent: coordinate collision
    kPcLoop = 23,
    kPcTailA = 24,
    kPcTailB = 25,
};

} // namespace

Trace
traceSpadd(const CsrMatrix &a, const CsrMatrix &b,
           std::vector<Index> &outIdxs, std::vector<Value> &outVals,
           std::vector<Index> &outRowNnz, Index rowBegin, Index rowEnd,
           SimdConfig /*simd*/)
{
    TMU_ASSERT(a.rows() == b.rows() && a.cols() == b.cols());

    for (Index r = rowBegin; r < rowEnd; ++r) {
        co_yield MicroOp::load(addrOf(a.ptrs().data(), r), 8);
        co_yield MicroOp::load(addrOf(a.ptrs().data(), r + 1), 8);
        co_yield MicroOp::load(addrOf(b.ptrs().data(), r), 8);
        co_yield MicroOp::load(addrOf(b.ptrs().data(), r + 1), 8);

        Index pa = a.rowBegin(r), pb = b.rowBegin(r);
        const Index ea = a.rowEnd(r), eb = b.rowEnd(r);
        Index emitted = 0;

        // while (both fibers have elements): the if-else merge.
        while (pa < ea && pb < eb) {
            const Index ca = a.idxs()[static_cast<size_t>(pa)];
            const Index cb = b.idxs()[static_cast<size_t>(pb)];
            co_yield MicroOp::load(addrOf(a.idxs().data(), pa), 8);
            co_yield MicroOp::load(addrOf(b.idxs().data(), pb), 8);
            co_yield MicroOp::branch(kPcEqual, ca == cb);
            Value v;
            Index c;
            if (ca == cb) {
                co_yield MicroOp::load(addrOf(a.vals().data(), pa), 8);
                co_yield MicroOp::load(addrOf(b.vals().data(), pb), 8);
                co_yield MicroOp::flop(1);
                v = a.vals()[static_cast<size_t>(pa)] +
                    b.vals()[static_cast<size_t>(pb)];
                c = ca;
                ++pa;
                ++pb;
            } else if (ca < cb) {
                co_yield MicroOp::branch(kPcWhich, true);
                co_yield MicroOp::load(addrOf(a.vals().data(), pa), 8);
                v = a.vals()[static_cast<size_t>(pa)];
                c = ca;
                ++pa;
            } else {
                co_yield MicroOp::branch(kPcWhich, false);
                co_yield MicroOp::load(addrOf(b.vals().data(), pb), 8);
                v = b.vals()[static_cast<size_t>(pb)];
                c = cb;
                ++pb;
            }
            outIdxs.push_back(c);
            outVals.push_back(v);
            ++emitted;
            co_yield MicroOp::store(
                addrOf(outVals.data(),
                       static_cast<Index>(outVals.size() - 1)), 8);
            co_yield MicroOp::branch(kPcLoop, pa < ea && pb < eb);
        }
        // Tails: copy the remainder of whichever fiber survives.
        while (pa < ea) {
            co_yield MicroOp::load(addrOf(a.idxs().data(), pa), 8);
            co_yield MicroOp::load(addrOf(a.vals().data(), pa), 8);
            outIdxs.push_back(a.idxs()[static_cast<size_t>(pa)]);
            outVals.push_back(a.vals()[static_cast<size_t>(pa)]);
            ++emitted;
            ++pa;
            co_yield MicroOp::store(
                addrOf(outVals.data(),
                       static_cast<Index>(outVals.size() - 1)), 8);
            co_yield MicroOp::branch(kPcTailA, pa < ea);
        }
        while (pb < eb) {
            co_yield MicroOp::load(addrOf(b.idxs().data(), pb), 8);
            co_yield MicroOp::load(addrOf(b.vals().data(), pb), 8);
            outIdxs.push_back(b.idxs()[static_cast<size_t>(pb)]);
            outVals.push_back(b.vals()[static_cast<size_t>(pb)]);
            ++emitted;
            ++pb;
            co_yield MicroOp::store(
                addrOf(outVals.data(),
                       static_cast<Index>(outVals.size() - 1)), 8);
            co_yield MicroOp::branch(kPcTailB, pb < eb);
        }
        outRowNnz.push_back(emitted);
        co_yield MicroOp::branch(kPcRow, r + 1 < rowEnd);
    }
    co_yield MicroOp::halt();
}

} // namespace tmu::kernels
