/**
 * @file
 * Triangle counting via masked SpMSpM on the lower triangle
 * (GraphBLAS fused formulation, paper [11][38]): for every stored edge
 * (i, j) of L, count |L_i* intersect L_j*|. Merge-intensive real-world
 * application of the evaluation.
 */

#pragma once

#include <cstdint>

#include "tensor/csr.hpp"

namespace tmu::kernels {

/** Reference triangle count; @p l must be a strict lower triangle. */
std::uint64_t tricountRef(const tensor::CsrMatrix &l);

} // namespace tmu::kernels
