#include "spmspm.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace tmu::kernels {

using tensor::CsrMatrix;

tensor::CsrMatrix
spmspmRef(const CsrMatrix &a, const CsrMatrix &b)
{
    TMU_ASSERT(a.cols() == b.rows());
    std::vector<Index> ptrs{0};
    std::vector<Index> idxs;
    std::vector<Value> vals;

    // Novelty is tracked with an explicit bitmap, not acc[j] == 0.0:
    // partial sums that cancel exactly would otherwise re-insert j and
    // emit a duplicate column (tests/corpus/spmspm-cancellation.tns).
    std::vector<Value> acc(static_cast<size_t>(b.cols()), 0.0);
    std::vector<char> seen(static_cast<size_t>(b.cols()), 0);
    std::vector<Index> touched;
    for (Index i = 0; i < a.rows(); ++i) {
        touched.clear();
        for (Index p = a.rowBegin(i); p < a.rowEnd(i); ++p) {
            const Index k = a.idxs()[static_cast<size_t>(p)];
            const Value av = a.vals()[static_cast<size_t>(p)];
            for (Index q = b.rowBegin(k); q < b.rowEnd(k); ++q) {
                const auto j =
                    static_cast<size_t>(b.idxs()[static_cast<size_t>(q)]);
                if (!seen[j]) {
                    seen[j] = 1;
                    touched.push_back(static_cast<Index>(j));
                }
                acc[j] += av * b.vals()[static_cast<size_t>(q)];
            }
        }
        std::sort(touched.begin(), touched.end());
        for (Index j : touched) {
            idxs.push_back(j);
            vals.push_back(acc[static_cast<size_t>(j)]);
            acc[static_cast<size_t>(j)] = 0.0;
            seen[static_cast<size_t>(j)] = 0;
        }
        ptrs.push_back(static_cast<Index>(idxs.size()));
    }
    return CsrMatrix(a.rows(), b.cols(), std::move(ptrs), std::move(idxs),
                     std::move(vals));
}

std::vector<Index>
spmspmRowNnz(const CsrMatrix &a, const CsrMatrix &b)
{
    TMU_ASSERT(a.cols() == b.rows());
    std::vector<Index> rowNnz(static_cast<size_t>(a.rows()), 0);
    std::vector<bool> seen(static_cast<size_t>(b.cols()), false);
    std::vector<Index> touched;
    for (Index i = 0; i < a.rows(); ++i) {
        touched.clear();
        for (Index p = a.rowBegin(i); p < a.rowEnd(i); ++p) {
            const Index k = a.idxs()[static_cast<size_t>(p)];
            for (Index q = b.rowBegin(k); q < b.rowEnd(k); ++q) {
                const auto j =
                    static_cast<size_t>(b.idxs()[static_cast<size_t>(q)]);
                if (!seen[j]) {
                    seen[j] = true;
                    touched.push_back(static_cast<Index>(j));
                }
            }
        }
        rowNnz[static_cast<size_t>(i)] =
            static_cast<Index>(touched.size());
        for (Index j : touched)
            seen[static_cast<size_t>(j)] = false;
    }
    return rowNnz;
}

} // namespace tmu::kernels
