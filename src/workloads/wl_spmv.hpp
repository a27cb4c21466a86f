/**
 * @file
 * SpMV and PageRank workload bindings (memory-intensive class).
 */

#pragma once

#include "tensor/csr.hpp"
#include "tensor/dense.hpp"
#include "workloads/workload.hpp"

namespace tmu::workloads {

/** SpMV CSR (paper Sec. 6): TACO/SVE baseline vs TMU P1. */
class SpmvWorkload : public Workload
{
  public:
    static constexpr const char *kEinsum =
        "Z(i) = A(i,j; csr) * B(j; dense)";

    std::string name() const override { return "SpMV"; }
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
    tensor::DenseVector b_;
    tensor::DenseVector ref_;
};

/** PageRank (GAP-style Jacobi iteration; one timed iteration). */
class PagerankWorkload : public Workload
{
  public:
    static constexpr const char *kEinsum =
        "Z(i) = beta + alpha * A(i,j; csr) * X(j; dense)";

    std::string name() const override { return "PR"; }
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
    tensor::DenseVector contrib_;
    tensor::DenseVector ref_;
    double damping_ = 0.85;
};

} // namespace tmu::workloads
