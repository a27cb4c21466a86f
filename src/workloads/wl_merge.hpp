/**
 * @file
 * Merge-intensive workload bindings: SpKAdd (k=8, DCSR) and SpAdd
 * (the Fig. 3 merge proxy).
 */

#pragma once

#include "tensor/csr.hpp"
#include "tensor/dcsr.hpp"
#include "workloads/workload.hpp"

namespace tmu::workloads {

/** SpKAdd: sum of 8 hypersparse DCSR matrices (paper Sec. 6). */
class SpkaddWorkload : public Workload
{
  public:
    static constexpr const char *kEinsum =
        "Z(i,j; dcsr) = sum_k A^k(i,j; dcsr)";

    std::string name() const override { return "SpKAdd"; }
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

    static constexpr int kInputs = 8; //!< paper: k = 8

  private:
    std::vector<tensor::DcsrMatrix> parts_;
    tensor::CsrMatrix ref_;
};

/** SpAdd: Z = A + B, CSR; TMU maps it as a 2-lane SpKAdd. */
class SpaddWorkload : public Workload
{
  public:
    std::string name() const override { return "SpAdd"; }
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
    tensor::CsrMatrix a_;
    tensor::CsrMatrix b_;
    std::vector<tensor::DcsrMatrix> asDcsr_; //!< TMU path operands
    tensor::CsrMatrix ref_;
};

} // namespace tmu::workloads
