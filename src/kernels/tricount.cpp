#include "tricount.hpp"

#include "tensor/merge.hpp"

namespace tmu::kernels {

using tensor::CsrMatrix;

std::uint64_t
tricountRef(const CsrMatrix &l)
{
    std::uint64_t count = 0;
    for (Index i = 0; i < l.rows(); ++i) {
        for (Index p = l.rowBegin(i); p < l.rowEnd(i); ++p) {
            const Index j = l.idxs()[static_cast<size_t>(p)];
            tensor::conjunctiveMerge2(l.row(i), l.row(j),
                                      [&](Index, auto) { ++count; });
        }
    }
    return count;
}

} // namespace tmu::kernels
