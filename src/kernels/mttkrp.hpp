/**
 * @file
 * Matricized Tensor Times Khatri-Rao Product on a COO tensor:
 * Z_ij = A_ikl * B_kj * C_lj (order-3 MTTKRP over mode 0, Table 4 rows
 * MTTKRP P1/P2; the kernel of CP-ALS).
 */

#pragma once

#include "tensor/coo.hpp"
#include "tensor/dense.hpp"

namespace tmu::kernels {

/**
 * Reference order-3 MTTKRP over @p mode: for each nonzero with
 * coordinates (c0,c1,c2), Z[c_mode] += val * B[c_m1] .* C[c_m2] where
 * m1/m2 are the other two modes in ascending order.
 */
tensor::DenseMatrix mttkrpRef(const tensor::CooTensor &a,
                              const tensor::DenseMatrix &b,
                              const tensor::DenseMatrix &c, int mode);

} // namespace tmu::kernels
