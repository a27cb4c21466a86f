/**
 * @file
 * SpMSpM (compute-intensive) and TriangleCount (merge-intensive)
 * workload bindings.
 */

#pragma once

#include "tensor/csr.hpp"
#include "workloads/workload.hpp"

namespace tmu::workloads {

/** Gustavson SpMSpM, Z = A * A^T (paper Sec. 6). */
class SpmspmWorkload : public Workload
{
  public:
    static constexpr const char *kEinsum =
        "Z(i,j; csr) = A(i,k; csr) * B(k,j; csr)";

    std::string name() const override { return "SpMSpM"; }
    Class workloadClass() const override
    {
        return Class::ComputeIntensive;
    }
    std::vector<std::string> inputs() const override
    {
        return {"M1", "M2", "M3", "M4", "M5", "M6"};
    }
    void prepare(const std::string &inputId, Index scaleDiv) override;
    RunResult run(const RunConfig &cfg) override;

    /**
     * Fig. 12c ceiling inputs: A is rows x n with every row storing
     * columns {0..n-1} (ideal spatio-temporal locality); the product
     * is taken against the dense n x n block.
     */
    void prepareSynthetic(Index rows, Index nnzPerRow);

  private:
    tensor::CsrMatrix a_;
    tensor::CsrMatrix bt_; //!< right-hand side in CSR
    tensor::CsrMatrix ref_;
};

/** Triangle counting on the lower triangle (fused GraphBLAS form). */
class TricountWorkload : public Workload
{
  public:
    static constexpr const char *kEinsum =
        "c = L(i,k; csr) * L(k,j; csr) * L(i,j; csr)";

    std::string name() const override { return "TC"; }
    Class workloadClass() const override
    {
        return Class::MergeIntensive;
    }
    std::vector<std::string> inputs() const override
    {
        return {"M1", "M2", "M3", "M4", "M5", "M6"};
    }
    void prepare(const std::string &inputId, Index scaleDiv) override;
    RunResult run(const RunConfig &cfg) override;

  private:
    tensor::CsrMatrix l_;
    std::uint64_t ref_ = 0;
};

} // namespace tmu::workloads
