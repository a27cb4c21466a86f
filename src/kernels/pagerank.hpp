/**
 * @file
 * PageRank (GAP benchmark style, Jacobi/power iteration):
 * Z_i = d * sum_j A_ij * X_j / outdeg_j + (1 - d) / N.
 * Memory-intensive real-world application of the evaluation.
 */

#pragma once

#include "tensor/csr.hpp"
#include "tensor/dense.hpp"

namespace tmu::kernels {

/** PageRank parameters. */
struct PageRankConfig
{
    int iterations = 3;
    double damping = 0.85;
};

/** Reference PageRank on an adjacency matrix (A_ij = edge j -> i). */
tensor::DenseVector pagerankRef(const tensor::CsrMatrix &a,
                                const PageRankConfig &cfg);

} // namespace tmu::kernels
