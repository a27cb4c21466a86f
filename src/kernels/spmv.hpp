/**
 * @file
 * Sparse matrix-vector multiplication, Z_i = A_ij * B_j, A in CSR
 * (paper Fig. 4). The traversal-stage proxy of the evaluation.
 */

#pragma once

#include "tensor/csr.hpp"
#include "tensor/dense.hpp"

namespace tmu::kernels {

/** Reference SpMV: x = A * b. */
tensor::DenseVector spmvRef(const tensor::CsrMatrix &a,
                            const tensor::DenseVector &b);

} // namespace tmu::kernels
