/**
 * @file
 * Hand-written TMU program builders for the kernels the einsum
 * frontend cannot express yet: SpTC's symbolic phase, which the SpTC
 * workload runs, and six Table-4-only mappings.
 *
 * Each builder returns the dataflow configuration for one core's slice
 * of the computation; the callback ids below are what the host-core
 * handlers register against. workloads::Table4 renders these builders
 * beside the rows it compiles from einsums.
 */

#pragma once

#include <vector>

#include "tensor/coo.hpp"
#include "tensor/csf.hpp"
#include "tensor/csr.hpp"
#include "tensor/dcsr.hpp"
#include "tensor/dense.hpp"
#include "tensor/sparse_vector.hpp"
#include "tmu/program.hpp"

namespace tmu::workloads {

/** Callback ids shared by programs and handlers. */
enum Cb : int {
    kCbRi = 1,   //!< row-iteration body: one dot-product chunk
    kCbRe,       //!< row end: store the reduced row
    kCbSetA,     //!< latch the current A value
    kCbAcc,      //!< accumulate a B-row chunk into the workspace
    kCbFlush,    //!< row finished, write the workspace out
    kCbRow,      //!< new outer coordinate (output row or fiber)
    kCbRoot,     //!< SpTC: new output row (A root)
    kCbJCoord,   //!< SpTC: candidate output column
    kCbRootEnd,  //!< SpTC: A root finished
};

/** SpTC symbolic: A(i,k,l) against B(l,k,j), merge-based lookup. */
engine::TmuProgram buildSptcSymbolic(const tensor::CsfTensor &a,
                                     const tensor::CsfTensor &b,
                                     Index rootBeg, Index rootEnd);

/** SpMSpV: conjunctive merge of each CSR row with a sparse vector. */
engine::TmuProgram buildSpmspv(const tensor::CsrMatrix &a,
                               const tensor::SparseVector &b,
                               Index rowBeg, Index rowEnd);

/** SpMM P1: dense B rows scanned per A nonzero, lanes over columns. */
engine::TmuProgram buildSpmmP1(const tensor::CsrMatrix &a,
                               const tensor::DenseMatrix &b, int lanes,
                               Index rowBeg, Index rowEnd);

/** SpMM P0: full-nest lockstep, one output row per lane (Table 4). */
engine::TmuProgram buildSpmmP0(const tensor::CsrMatrix &a,
                               const tensor::DenseMatrix &b, int lanes,
                               Index rowBeg, Index rowEnd);

/** SpMSpM P0: full-nest lockstep, one output row per lane (Table 4). */
engine::TmuProgram buildSpmspmP0(const tensor::CsrMatrix &a,
                                 const tensor::CsrMatrix &b, int lanes,
                                 Index rowBeg, Index rowEnd);

/** SpTTV: CSF tensor times vector, lanes over the k fiber. */
engine::TmuProgram buildSpttv(const tensor::CsfTensor &a,
                              const tensor::DenseVector &b, int lanes,
                              Index rootBeg, Index rootEnd);

/** SpTTM: CSF tensor times matrix, lanes over the dense l columns. */
engine::TmuProgram buildSpttm(const tensor::CsfTensor &a,
                              const tensor::DenseMatrix &b, int lanes,
                              Index rootBeg, Index rootEnd);

} // namespace tmu::workloads
