#include "programs.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace tmu::workloads {

using engine::CallbackEvent;
using engine::ElemType;
using engine::GroupMode;
using engine::StreamRef;
using engine::TmuProgram;
using engine::TuRef;
using engine::kMskOperand;
using tensor::CsfTensor;
using tensor::CsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;
using tensor::SparseVector;

TmuProgram
buildSptcSymbolic(const CsfTensor &a, const CsfTensor &b, Index rootBeg,
                  Index rootEnd)
{
    TMU_ASSERT(a.order() == 3 && b.order() == 3);
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::Single); // A roots (i)
    const int l1 = p.addLayer(GroupMode::BCast);  // A k nodes
    const int l2 = p.addLayer(GroupMode::ConjMrg); // l vs B roots
    const int l3 = p.addLayer(GroupMode::ConjMrg); // k vs B k-fiber
    const int l4 = p.addLayer(GroupMode::Single);  // B j fiber

    const TuRef roots = p.dnsFbrT(l0, 0, rootBeg, rootEnd);
    const StreamRef iCoord = p.addMemStream(roots, a.idxs(0).data(),
                                            ElemType::I64, {}, "a_i");
    const StreamRef aPtrB = p.addMemStream(roots, a.ptrs(0).data(),
                                           ElemType::I64, {}, "a_p0b");
    const StreamRef aPtrE = p.addMemStream(roots, a.ptrs(0).data() + 1,
                                           ElemType::I64, {}, "a_p0e");
    p.setExpectedFiberLen(roots,
                          std::max<Index>(1, rootEnd - rootBeg));

    const TuRef ks = p.rngFbrT(l1, 0, aPtrB, aPtrE);
    const StreamRef kCoord =
        p.addMemStream(ks, a.idxs(1).data(), ElemType::I64, {}, "a_k");
    const StreamRef kPtrB =
        p.addMemStream(ks, a.ptrs(1).data(), ElemType::I64, {}, "a_p1b");
    const StreamRef kPtrE = p.addMemStream(ks, a.ptrs(1).data() + 1,
                                           ElemType::I64, {}, "a_p1e");
    p.setExpectedFiberLen(ks, 4);

    // Lane 0: A's l fiber; lane 1: B's root (l) level.
    const TuRef aL = p.rngFbrT(l2, 0, kPtrB, kPtrE);
    const StreamRef aLCoord =
        p.addMemStream(aL, a.idxs(2).data(), ElemType::I64, {}, "a_l");
    const StreamRef fwdK = p.addFwdStream(aL, kCoord, "fwd_k");
    p.setMergeKey(aL, aLCoord);
    p.setExpectedFiberLen(aL, 4);

    const TuRef bRoots = p.dnsFbrT(l2, 1, 0, b.numNodes(0));
    const StreamRef bLCoord = p.addMemStream(bRoots, b.idxs(0).data(),
                                             ElemType::I64, {}, "b_l");
    const StreamRef bPtrB = p.addMemStream(bRoots, b.ptrs(0).data(),
                                           ElemType::I64, {}, "b_p0b");
    const StreamRef bPtrE = p.addMemStream(bRoots, b.ptrs(0).data() + 1,
                                           ElemType::I64, {}, "b_p0e");
    p.setMergeKey(bRoots, bLCoord);
    p.setExpectedFiberLen(bRoots, std::max<Index>(2, b.numNodes(0)));

    // Lane 0: the single k coordinate; lane 1: B's k fiber under l.
    const TuRef kOne = p.idxFbrT(l3, 0, fwdK, 1);
    p.setExpectedFiberLen(kOne, 1);
    const TuRef bKs = p.rngFbrT(l3, 1, bPtrB, bPtrE);
    const StreamRef bKCoord =
        p.addMemStream(bKs, b.idxs(1).data(), ElemType::I64, {}, "b_k");
    const StreamRef bKPtrB =
        p.addMemStream(bKs, b.ptrs(1).data(), ElemType::I64, {}, "b_p1b");
    const StreamRef bKPtrE = p.addMemStream(bKs, b.ptrs(1).data() + 1,
                                            ElemType::I64, {}, "b_p1e");
    p.setMergeKey(bKs, bKCoord);
    p.setExpectedFiberLen(bKs, 4);

    const TuRef js = p.rngFbrT(l4, 0, bKPtrB, bKPtrE);
    const StreamRef jCoord =
        p.addMemStream(js, b.idxs(2).data(), ElemType::I64, {}, "b_j");
    p.setExpectedFiberLen(js, 4);

    const int iOp = p.addVecStream(l0, {iCoord}, ElemType::I64, "i");
    const int jOp = p.addVecStream(l4, {jCoord}, ElemType::I64, "j");
    p.addCallback(l0, CallbackEvent::GroupIte, kCbRoot, {iOp});
    p.addCallback(l1, CallbackEvent::GroupEnd, kCbRootEnd, {});
    p.addCallback(l4, CallbackEvent::GroupIte, kCbJCoord, {jOp});
    return p;
}

TmuProgram
buildSpmspv(const CsrMatrix &a, const SparseVector &b, Index rowBeg,
            Index rowEnd)
{
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::BCast);
    const int l1 = p.addLayer(GroupMode::ConjMrg);

    const TuRef rows = p.dnsFbrT(l0, 0, rowBeg, rowEnd);
    const StreamRef ptrB = p.addMemStream(rows, a.ptrs().data(),
                                          ElemType::I64, {}, "row_ptbs");
    const StreamRef ptrE = p.addMemStream(rows, a.ptrs().data() + 1,
                                          ElemType::I64, {}, "row_ptes");
    p.setExpectedFiberLen(rows, std::max<Index>(1, rowEnd - rowBeg));

    const TuRef aCols = p.rngFbrT(l1, 0, ptrB, ptrE);
    const StreamRef aIdx = p.addMemStream(aCols, a.idxs().data(),
                                          ElemType::I64, {}, "a_idxs");
    const StreamRef aVal = p.addMemStream(aCols, a.vals().data(),
                                          ElemType::F64, {}, "a_vals");
    p.setMergeKey(aCols, aIdx);

    const TuRef bEnts = p.dnsFbrT(l1, 1, 0, b.nnz());
    const StreamRef bIdx = p.addMemStream(bEnts, b.idxs().data(),
                                          ElemType::I64, {}, "b_idxs");
    const StreamRef bVal = p.addMemStream(bEnts, b.vals().data(),
                                          ElemType::F64, {}, "b_vals");
    p.setMergeKey(bEnts, bIdx);

    const int valOp =
        p.addVecStream(l1, {aVal, bVal}, ElemType::F64, "vals");
    p.addCallback(l1, CallbackEvent::GroupIte, kCbRi, {valOp});
    p.addCallback(l1, CallbackEvent::GroupEnd, kCbRe, {});
    return p;
}

TmuProgram
buildSpmmP1(const CsrMatrix &a, const DenseMatrix &b, int lanes,
            Index rowBeg, Index rowEnd)
{
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::Single);
    const int l1 = p.addLayer(GroupMode::BCast);
    const int l2 = p.addLayer(GroupMode::LockStep);

    const TuRef rows = p.dnsFbrT(l0, 0, rowBeg, rowEnd);
    const StreamRef ptrB = p.addMemStream(rows, a.ptrs().data(),
                                          ElemType::I64, {}, "row_ptbs");
    const StreamRef ptrE = p.addMemStream(rows, a.ptrs().data() + 1,
                                          ElemType::I64, {}, "row_ptes");

    const TuRef ks = p.rngFbrT(l1, 0, ptrB, ptrE);
    const StreamRef kIdx =
        p.addMemStream(ks, a.idxs().data(), ElemType::I64, {}, "a_idxs");
    const StreamRef aVal =
        p.addMemStream(ks, a.vals().data(), ElemType::F64, {}, "a_vals");
    const StreamRef rowB = p.addLinStream(
        ks, static_cast<double>(b.cols()), 0.0, kIdx, "rowB");

    std::vector<StreamRef> bVals;
    for (int r = 0; r < lanes; ++r) {
        const TuRef js = p.idxFbrT(l2, r, rowB, b.cols(), r, lanes);
        bVals.push_back(
            p.addMemStream(js, b.data(), ElemType::F64, {}, "B"));
    }
    const int iOp =
        p.addVecStream(l0, {p.iteStream(rows)}, ElemType::I64, "i");
    const int aOp = p.addVecStream(l1, {aVal}, ElemType::F64, "a");
    const int bOp = p.addVecStream(l2, bVals, ElemType::F64, "B");
    p.addCallback(l0, CallbackEvent::GroupIte, kCbRow, {iOp});
    p.addCallback(l1, CallbackEvent::GroupIte, kCbSetA, {aOp});
    p.addCallback(l2, CallbackEvent::GroupIte, kCbAcc, {bOp});
    return p;
}

TmuProgram
buildSpmmP0(const CsrMatrix &a, const DenseMatrix &b, int lanes,
            Index rowBeg, Index rowEnd)
{
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::LockStep);
    const int l1 = p.addLayer(GroupMode::LockStep);
    const int l2 = p.addLayer(GroupMode::LockStep);

    std::vector<StreamRef> rowIdx, aVals, bVals, jVals;
    for (int r = 0; r < lanes; ++r) {
        const TuRef rows = p.dnsFbrT(l0, r, rowBeg + r, rowEnd, lanes);
        const StreamRef ptrB = p.addMemStream(
            rows, a.ptrs().data(), ElemType::I64, {}, "row_ptbs");
        const StreamRef ptrE = p.addMemStream(
            rows, a.ptrs().data() + 1, ElemType::I64, {}, "row_ptes");
        rowIdx.push_back(p.iteStream(rows));

        const TuRef ks = p.rngFbrT(l1, r, ptrB, ptrE);
        const StreamRef kIdx = p.addMemStream(ks, a.idxs().data(),
                                              ElemType::I64, {},
                                              "a_idxs");
        aVals.push_back(p.addMemStream(ks, a.vals().data(),
                                       ElemType::F64, {}, "a_vals"));
        const StreamRef rowB = p.addLinStream(
            ks, static_cast<double>(b.cols()), 0.0, kIdx, "rowB");
        const StreamRef negRowB = p.addLinStream(
            ks, -static_cast<double>(b.cols()), 0.0, kIdx, "negRowB");

        const TuRef js = p.idxFbrT(l2, r, rowB, b.cols());
        bVals.push_back(
            p.addMemStream(js, b.data(), ElemType::F64, {}, "B"));
        const StreamRef fwdNeg = p.addFwdStream(js, negRowB, "nB");
        jVals.push_back(p.addLinStream(js, 1.0, 0.0, {}, "j", fwdNeg));
    }
    const int iOp = p.addVecStream(l0, rowIdx, ElemType::I64, "i");
    const int aOp = p.addVecStream(l1, aVals, ElemType::F64, "a");
    const int jOp = p.addVecStream(l2, jVals, ElemType::I64, "j");
    const int bOp = p.addVecStream(l2, bVals, ElemType::F64, "B");
    p.addCallback(l0, CallbackEvent::GroupIte, kCbRow,
                  {iOp, kMskOperand});
    p.addCallback(l1, CallbackEvent::GroupIte, kCbSetA,
                  {aOp, kMskOperand});
    p.addCallback(l2, CallbackEvent::GroupIte, kCbAcc,
                  {jOp, bOp, kMskOperand});
    return p;
}

TmuProgram
buildSpmspmP0(const CsrMatrix &a, const CsrMatrix &b, int lanes,
              Index rowBeg, Index rowEnd)
{
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::LockStep);
    const int l1 = p.addLayer(GroupMode::LockStep);
    const int l2 = p.addLayer(GroupMode::LockStep);

    std::vector<StreamRef> rowIdx, aVals, bVals, jIdxs;
    for (int r = 0; r < lanes; ++r) {
        const TuRef rows = p.dnsFbrT(l0, r, rowBeg + r, rowEnd, lanes);
        const StreamRef ptrB = p.addMemStream(
            rows, a.ptrs().data(), ElemType::I64, {}, "row_ptbs");
        const StreamRef ptrE = p.addMemStream(
            rows, a.ptrs().data() + 1, ElemType::I64, {}, "row_ptes");
        rowIdx.push_back(p.iteStream(rows));

        const TuRef ks = p.rngFbrT(l1, r, ptrB, ptrE);
        const StreamRef kIdx = p.addMemStream(ks, a.idxs().data(),
                                              ElemType::I64, {},
                                              "a_idxs");
        aVals.push_back(p.addMemStream(ks, a.vals().data(),
                                       ElemType::F64, {}, "a_vals"));
        const StreamRef bPtrB = p.addMemStream(
            ks, b.ptrs().data(), ElemType::I64, kIdx, "b_ptbs");
        const StreamRef bPtrE = p.addMemStream(
            ks, b.ptrs().data() + 1, ElemType::I64, kIdx, "b_ptes");

        const TuRef js = p.rngFbrT(l2, r, bPtrB, bPtrE);
        jIdxs.push_back(p.addMemStream(js, b.idxs().data(),
                                       ElemType::I64, {}, "b_idxs"));
        bVals.push_back(p.addMemStream(js, b.vals().data(),
                                       ElemType::F64, {}, "b_vals"));
    }
    const int iOp = p.addVecStream(l0, rowIdx, ElemType::I64, "i");
    const int aOp = p.addVecStream(l1, aVals, ElemType::F64, "a");
    const int jOp = p.addVecStream(l2, jIdxs, ElemType::I64, "j");
    const int bOp = p.addVecStream(l2, bVals, ElemType::F64, "b");
    p.addCallback(l0, CallbackEvent::GroupIte, kCbRow,
                  {iOp, kMskOperand});
    p.addCallback(l1, CallbackEvent::GroupIte, kCbSetA,
                  {aOp, kMskOperand});
    p.addCallback(l2, CallbackEvent::GroupIte, kCbAcc,
                  {jOp, bOp, kMskOperand});
    return p;
}

TmuProgram
buildSpttv(const CsfTensor &a, const DenseVector &b, int lanes,
           Index rootBeg, Index rootEnd)
{
    TMU_ASSERT(a.order() == 3);
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::Single);
    const int l1 = p.addLayer(GroupMode::BCast);
    const int l2 = p.addLayer(GroupMode::LockStep);

    const TuRef roots = p.dnsFbrT(l0, 0, rootBeg, rootEnd);
    const StreamRef iCoord = p.addMemStream(roots, a.idxs(0).data(),
                                            ElemType::I64, {}, "i");
    const StreamRef p0b = p.addMemStream(roots, a.ptrs(0).data(),
                                         ElemType::I64, {}, "p0b");
    const StreamRef p0e = p.addMemStream(roots, a.ptrs(0).data() + 1,
                                         ElemType::I64, {}, "p0e");

    const TuRef js = p.rngFbrT(l1, 0, p0b, p0e);
    const StreamRef jCoord =
        p.addMemStream(js, a.idxs(1).data(), ElemType::I64, {}, "j");
    const StreamRef p1b =
        p.addMemStream(js, a.ptrs(1).data(), ElemType::I64, {}, "p1b");
    const StreamRef p1e = p.addMemStream(js, a.ptrs(1).data() + 1,
                                         ElemType::I64, {}, "p1e");

    std::vector<StreamRef> aVals, bVals;
    for (int r = 0; r < lanes; ++r) {
        const TuRef ks = p.rngFbrT(l2, r, p1b, p1e, r, lanes);
        const StreamRef kCoord =
            p.addMemStream(ks, a.idxs(2).data(), ElemType::I64, {}, "k");
        aVals.push_back(p.addMemStream(ks, a.vals().data(),
                                       ElemType::F64, {}, "a_vals"));
        bVals.push_back(p.addMemStream(ks, b.data(), ElemType::F64,
                                       kCoord, "b_vals"));
    }
    const int iOp = p.addVecStream(l0, {iCoord}, ElemType::I64, "i");
    const int jOp = p.addVecStream(l1, {jCoord}, ElemType::I64, "j");
    const int aOp = p.addVecStream(l2, aVals, ElemType::F64, "a");
    const int bOp = p.addVecStream(l2, bVals, ElemType::F64, "b");
    p.addCallback(l0, CallbackEvent::GroupIte, kCbRoot, {iOp});
    p.addCallback(l1, CallbackEvent::GroupIte, kCbRow, {jOp});
    p.addCallback(l2, CallbackEvent::GroupIte, kCbRi, {aOp, bOp});
    p.addCallback(l2, CallbackEvent::GroupEnd, kCbRe, {});
    return p;
}

TmuProgram
buildSpttm(const CsfTensor &a, const DenseMatrix &b, int lanes,
           Index rootBeg, Index rootEnd)
{
    TMU_ASSERT(a.order() == 3 && a.dim(2) == b.rows());
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::Single);
    const int l1 = p.addLayer(GroupMode::Single);
    const int l2 = p.addLayer(GroupMode::BCast);
    const int l3 = p.addLayer(GroupMode::LockStep);

    const TuRef roots = p.dnsFbrT(l0, 0, rootBeg, rootEnd);
    const StreamRef iCoord = p.addMemStream(roots, a.idxs(0).data(),
                                            ElemType::I64, {}, "i");
    const StreamRef p0b = p.addMemStream(roots, a.ptrs(0).data(),
                                         ElemType::I64, {}, "p0b");
    const StreamRef p0e = p.addMemStream(roots, a.ptrs(0).data() + 1,
                                         ElemType::I64, {}, "p0e");

    const TuRef js = p.rngFbrT(l1, 0, p0b, p0e);
    const StreamRef jCoord =
        p.addMemStream(js, a.idxs(1).data(), ElemType::I64, {}, "j");
    const StreamRef p1b =
        p.addMemStream(js, a.ptrs(1).data(), ElemType::I64, {}, "p1b");
    const StreamRef p1e = p.addMemStream(js, a.ptrs(1).data() + 1,
                                         ElemType::I64, {}, "p1e");

    const TuRef ks = p.rngFbrT(l2, 0, p1b, p1e);
    const StreamRef kCoord =
        p.addMemStream(ks, a.idxs(2).data(), ElemType::I64, {}, "k");
    const StreamRef aVal =
        p.addMemStream(ks, a.vals().data(), ElemType::F64, {}, "a_val");
    const StreamRef rowB = p.addLinStream(
        ks, static_cast<double>(b.cols()), 0.0, kCoord, "rowB");

    std::vector<StreamRef> bVals;
    for (int r = 0; r < lanes; ++r) {
        const TuRef ls = p.idxFbrT(l3, r, rowB, b.cols(), r, lanes);
        bVals.push_back(
            p.addMemStream(ls, b.data(), ElemType::F64, {}, "B"));
    }
    const int iOp = p.addVecStream(l0, {iCoord}, ElemType::I64, "i");
    const int jOp = p.addVecStream(l1, {jCoord}, ElemType::I64, "j");
    const int aOp = p.addVecStream(l2, {aVal}, ElemType::F64, "a");
    const int bOp = p.addVecStream(l3, bVals, ElemType::F64, "B");
    p.addCallback(l0, CallbackEvent::GroupIte, kCbRoot, {iOp});
    p.addCallback(l1, CallbackEvent::GroupIte, kCbRow, {jOp});
    p.addCallback(l1, CallbackEvent::GroupEnd, kCbFlush, {});
    p.addCallback(l2, CallbackEvent::GroupIte, kCbSetA, {aOp});
    p.addCallback(l3, CallbackEvent::GroupIte, kCbAcc, {bOp});
    return p;
}

} // namespace tmu::workloads
