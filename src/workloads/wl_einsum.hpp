/**
 * @file
 * Workloads opened purely by the einsum frontend: SDDMM, SpMM with a
 * sparse output, and GNN-style SpMM+scatter. No hand-written kernel or
 * plan code backs these — each run() compiles its one-line expression
 * through plan::frontend::compileEinsum and lowers through the shared
 * reference/trace/program passes. Verification is against plain host
 * loops computed in prepare(), independent of the plan machinery.
 */

#pragma once

#include "tensor/csr.hpp"
#include "tensor/dense.hpp"
#include "workloads/workload.hpp"

namespace tmu::workloads {

/** SDDMM: Z(i,j; csr) = A(i,j; csr) * B(i,k; dense) * C(j,k; dense). */
class SddmmWorkload : public Workload
{
  public:
    static constexpr Index kRank = 16;
    static constexpr const char *kEinsum =
        "Z(i,j; csr) = A(i,j; csr) * B(i,k; dense) * C(j,k; dense)";

    std::string name() const override { return "SDDMM"; }
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

  private:
    tensor::CsrMatrix a_;
    tensor::DenseMatrix b_, c_;
    tensor::CsrMatrix ref_; //!< sampled pattern is A's
};

/** SpMM, sparse output: Z(i,j; csr) = A(i,k; csr) * B(k,j; dense). */
class SpmmWorkload : public Workload
{
  public:
    static constexpr Index kCols = 16;
    static constexpr const char *kEinsum =
        "Z(i,j; csr) = A(i,k; csr) * B(k,j; dense)";

    std::string name() const override { return "SpMM"; }
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

  private:
    tensor::CsrMatrix a_;
    tensor::DenseMatrix b_;
    tensor::CsrMatrix ref_; //!< kCols entries per non-empty A row
};

/**
 * GNN-style gather-scatter SpMM:
 * Z(m(i), j) += A(i,k; csr) * B(k,j; dense) with a permutation map m.
 */
class SpmmScatterWorkload : public Workload
{
  public:
    static constexpr Index kCols = 16;
    static constexpr const char *kEinsum =
        "Z(m(i), j) = A(i,k; csr) * B(k,j; dense)";

    std::string name() const override { return "SpMM-SC"; }
    Class workloadClass() const override
    {
        return Class::MemoryIntensive;
    }
    std::vector<std::string> inputs() const override
    {
        return {"M1", "M2", "M3", "M4", "M5", "M6"};
    }
    void prepare(const std::string &inputId, Index scaleDiv) override;
    RunResult run(const RunConfig &cfg) override;

  private:
    tensor::CsrMatrix a_;
    tensor::DenseMatrix b_;
    std::vector<Index> map_;
    tensor::DenseMatrix ref_;
};

} // namespace tmu::workloads
