#include "mttkrp.hpp"

#include "common/log.hpp"

namespace tmu::kernels {

using tensor::CooTensor;
using tensor::DenseMatrix;

tensor::DenseMatrix
mttkrpRef(const CooTensor &a, const DenseMatrix &b, const DenseMatrix &c,
          int mode)
{
    TMU_ASSERT(a.order() == 3 && mode >= 0 && mode < 3);
    const int m1 = mode == 0 ? 1 : 0;
    const int m2 = mode == 2 ? 1 : 2;
    TMU_ASSERT(b.rows() == a.dim(m1) && c.rows() == a.dim(m2));
    TMU_ASSERT(b.cols() == c.cols());
    const Index rank = b.cols();

    DenseMatrix z(a.dim(mode), rank, 0.0);
    for (Index p = 0; p < a.nnz(); ++p) {
        const Index i = a.idx(mode, p);
        const Value *bk = b.row(a.idx(m1, p));
        const Value *cl = c.row(a.idx(m2, p));
        Value *zi = z.row(i);
        const Value v = a.val(p);
        for (Index j = 0; j < rank; ++j)
            zi[j] += v * bk[j] * cl[j];
    }
    return z;
}

} // namespace tmu::kernels
