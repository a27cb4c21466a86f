/**
 * @file
 * ULP-aware numeric comparison and structured diff reporting.
 *
 * Two consumers: the run verifier (workloads/workload.hpp) checks
 * every simulated run against its reference under a stated bound, and
 * the differential oracle (testing/oracle.hpp) compares legs that
 * compute the same result along different code paths (reference
 * kernel vs drained trace vs TMU program vs format-permuted run).
 * Summation order differs between legs, so exact equality is wrong; a
 * fixed epsilon is also wrong because the fuzzer mixes magnitudes.
 * close() therefore accepts a small absolute tolerance (for sums near
 * zero), a relative tolerance, or a bounded ULP distance — and treats
 * NaN==NaN as equal so a leg pair that both produce NaN does not count
 * as a divergence.
 *
 * The diff* helpers return "" on match or a one-line description of
 * the first mismatch (coordinate, both values) so oracle failures are
 * actionable without a debugger.
 */

#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "tensor/coo.hpp"
#include "tensor/csr.hpp"
#include "tensor/dense.hpp"

namespace tmu::tensor {

/** Tolerances for one comparison. Defaults fit the fuzzer's value model. */
struct Compare
{
    double absTol = 1e-12;
    double relTol = 1e-9;
    int maxUlps = 64;

    /** True if the leg values agree under abs/rel/ULP tolerance. */
    bool close(Value a, Value b) const;

    /** Exact comparison (still NaN==NaN): for metamorphic identities. */
    static Compare exact() { return Compare{0.0, 0.0, 0}; }
};

/** ULP distance between two finite doubles (monotone integer mapping). */
std::uint64_t ulpDistance(Value a, Value b);

/**
 * Compare two CSR matrices structurally (dims, ptrs, idxs) and
 * numerically (vals under @p cmp). Returns "" or a first-mismatch
 * description prefixed with @p what.
 */
std::string diffCsr(const std::string &what, const CsrMatrix &a,
                    const CsrMatrix &b, const Compare &cmp = {});

/** Compare two canonical COO tensors; "" or first mismatch. */
std::string diffCoo(const std::string &what, const CooTensor &a,
                    const CooTensor &b, const Compare &cmp = {});

/** Compare two value vectors elementwise; "" or first mismatch. */
std::string diffVals(const std::string &what,
                     const std::vector<Value> &a,
                     const std::vector<Value> &b,
                     const Compare &cmp = {});

/** Compare two dense vectors elementwise; "" or first mismatch. */
std::string diffDense(const std::string &what,
                      const DenseVector &a,
                      const DenseVector &b,
                      const Compare &cmp = {});

/** Compare two dense matrices elementwise; "" or first mismatch. */
std::string diffDense(const std::string &what,
                      const DenseMatrix &a,
                      const DenseMatrix &b,
                      const Compare &cmp = {});

} // namespace tmu::tensor
