#include "pagerank.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "tensor/convert.hpp"

namespace tmu::kernels {

using tensor::CsrMatrix;
using tensor::DenseVector;

tensor::DenseVector
pagerankRef(const CsrMatrix &a, const PageRankConfig &cfg)
{
    TMU_ASSERT(a.rows() == a.cols());
    const Index n = a.rows();
    const double base = (1.0 - cfg.damping) / static_cast<double>(n);

    // Out-degree of vertex j = nnz of column j = row j (symmetric
    // inputs) — computed from the transpose for generality.
    const CsrMatrix at = tensor::transposeCsr(a);
    DenseVector outdeg(n, 0.0);
    for (Index j = 0; j < n; ++j)
        outdeg[j] = static_cast<Value>(std::max<Index>(1, at.rowNnz(j)));

    DenseVector x(n, 1.0 / static_cast<double>(n));
    DenseVector contrib(n), next(n);
    for (int it = 0; it < cfg.iterations; ++it) {
        for (Index j = 0; j < n; ++j)
            contrib[j] = x[j] / outdeg[j];
        for (Index i = 0; i < n; ++i) {
            Value sum = 0.0;
            for (Index p = a.rowBegin(i); p < a.rowEnd(i); ++p) {
                sum += a.vals()[static_cast<size_t>(p)] *
                       contrib[a.idxs()[static_cast<size_t>(p)]];
            }
            next[i] = base + cfg.damping * sum;
        }
        std::swap(x, next);
    }
    return x;
}

} // namespace tmu::kernels
