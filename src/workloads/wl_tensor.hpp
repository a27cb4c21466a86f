/**
 * @file
 * Tensor workload bindings: MTTKRP (P1 mode-level / P2 rank-level),
 * SpTC (symbolic phase) and CP-ALS.
 */

#pragma once

#include "kernels/cpals.hpp"
#include "tensor/coo.hpp"
#include "tensor/csf.hpp"
#include "tensor/dense.hpp"
#include "workloads/workload.hpp"

namespace tmu::workloads {

/** MTTKRP over a COO tensor; P1 or P2 TMU parallelization. */
class MttkrpWorkload : public Workload
{
  public:
    enum class Variant { P1, P2 };

    static constexpr const char *kEinsum =
        "Z(i,j) = A(i,k,l; coo) * B(k,j; dense) * C(l,j; dense)";

    explicit MttkrpWorkload(Variant v) : variant_(v) {}

    std::string name() const override
    {
        return variant_ == Variant::P1 ? "MTTKRP_MP" : "MTTKRP_CP";
    }
    Class workloadClass() const override
    {
        return Class::MemoryIntensive;
    }
    std::vector<std::string> inputs() const override
    {
        return {"T1", "T2", "T3", "T4"};
    }
    void prepare(const std::string &inputId, Index scaleDiv) override;
    RunResult run(const RunConfig &cfg) override;

    static constexpr Index kRank = 16;

  private:
    Variant variant_;
    tensor::CooTensor t_;
    tensor::DenseMatrix b_;
    tensor::DenseMatrix c_;
    tensor::DenseMatrix ref_;
};

/** SpTC: symbolic contraction of two CSF tensors (paper Sec. 6). */
class SptcWorkload : public Workload
{
  public:
    std::string name() const override { return "SpTC"; }
    Class workloadClass() const override
    {
        return Class::MergeIntensive;
    }
    std::vector<std::string> inputs() const override
    {
        return {"T1", "T2", "T3", "T4"};
    }
    void prepare(const std::string &inputId, Index scaleDiv) override;
    RunResult run(const RunConfig &cfg) override;

  private:
    tensor::CsfTensor a_;
    tensor::CsfTensor b_;
    std::vector<Index> ref_;
};

/** CP-ALS: one full sweep (3 mode updates) of rank-16 ALS. */
class CpalsWorkload : public Workload
{
  public:
    std::string name() const override { return "CP-ALS"; }
    Class workloadClass() const override
    {
        return Class::MemoryIntensive;
    }
    std::vector<std::string> inputs() const override
    {
        return {"T1", "T2", "T3", "T4"};
    }
    void prepare(const std::string &inputId, Index scaleDiv) override;
    RunResult run(const RunConfig &cfg) override;

  private:
    tensor::CooTensor t_;
    kernels::CpalsConfig cfg_;
    kernels::CpFactors init_;
    kernels::CpFactors ref_;
};

} // namespace tmu::workloads
