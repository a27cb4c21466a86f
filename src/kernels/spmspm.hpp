/**
 * @file
 * Gustavson sparse matrix - sparse matrix multiplication,
 * Z_ij = A_ik * B_kj with (ikj) schedule. The compute-stage proxy of
 * the evaluation (run as Z = A * A^T there).
 */

#pragma once

#include "tensor/csr.hpp"

namespace tmu::kernels {

/** Reference Gustavson SpMSpM: Z = A * B, all CSR. */
tensor::CsrMatrix spmspmRef(const tensor::CsrMatrix &a,
                            const tensor::CsrMatrix &b);

/**
 * Count the nnz of each output row of A * B (the symbolic phase used to
 * preallocate Z; paper Sec. 2.5).
 */
std::vector<Index> spmspmRowNnz(const tensor::CsrMatrix &a,
                                const tensor::CsrMatrix &b);

} // namespace tmu::kernels
