/**
 * @file
 * Sparse matrix addition: SpAdd (Z = A + B, CSR) and SpKAdd
 * (Z = sum of K hypersparse DCSR matrices). The merge-stage proxies of
 * the evaluation (paper Secs. 3 and 6).
 */

#pragma once

#include <vector>

#include "sim/microop.hpp"
#include "tensor/csr.hpp"
#include "tensor/dcsr.hpp"

namespace tmu::kernels {

/** Reference SpAdd: Z = A + B via per-row disjunctive merge. */
tensor::CsrMatrix spaddRef(const tensor::CsrMatrix &a,
                           const tensor::CsrMatrix &b);

/** Reference SpKAdd: Z = sum_k A^k, hierarchical disjunctive merge. */
tensor::CsrMatrix spkaddRef(const std::vector<tensor::DcsrMatrix> &inputs);

/**
 * Scalar baseline SpAdd over rows [rowBegin, rowEnd): the classic
 * while/if-else two-way merge with data-dependent branches (paper
 * Sec. 2.4). Appends to the caller's output arrays.
 */
sim::Trace traceSpadd(const tensor::CsrMatrix &a,
                      const tensor::CsrMatrix &b,
                      std::vector<Index> &outIdxs,
                      std::vector<Value> &outVals,
                      std::vector<Index> &outRowNnz, Index rowBegin,
                      Index rowEnd, sim::SimdConfig simd);

} // namespace tmu::kernels
