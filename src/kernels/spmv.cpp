#include "spmv.hpp"

#include "common/log.hpp"

namespace tmu::kernels {

using tensor::CsrMatrix;
using tensor::DenseVector;

tensor::DenseVector
spmvRef(const CsrMatrix &a, const DenseVector &b)
{
    TMU_ASSERT(a.cols() == b.size());
    DenseVector x(a.rows());
    for (Index r = 0; r < a.rows(); ++r) {
        Value sum = 0.0;
        for (Index p = a.rowBegin(r); p < a.rowEnd(r); ++p) {
            sum += a.vals()[static_cast<size_t>(p)] *
                   b[a.idxs()[static_cast<size_t>(p)]];
        }
        x[r] = sum;
    }
    return x;
}

} // namespace tmu::kernels
