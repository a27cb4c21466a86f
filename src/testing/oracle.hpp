/**
 * @file
 * Differential oracle: one input tensor, every redundant code path.
 *
 * Each check* entry point takes a canonical COO tensor and runs the
 * same computation along independent implementations — format
 * round-trips (COO <-> CSR <-> DCSR <-> CSF <-> dense <-> .mtx/.tns),
 * the *Ref reference kernels, and the plans compiled from the
 * workloads' einsums through all three lowerings: the reference
 * evaluator, the traced SVE baseline (whose coroutine computes results
 * as it is drained) and the TMU program, run on a cycle-level engine
 * through the production callback handlers — then cross-compares every
 * pair that must agree. Any divergence is a bug in one of the legs.
 *
 * The Mutation parameter supports the harness self-check: the mutation
 * is applied to the copy of the input that the *derived* legs consume
 * while the reference legs keep the original, so a correct oracle must
 * flag every non-None mutation (the conversion round-trip legs compare
 * the two directly, which makes detection unconditional).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/compare.hpp"
#include "tensor/coo.hpp"

namespace tmu::testing {

/** Semantic fault injected for the --self-check mode. */
enum class Mutation {
    None,         //!< clean run
    DropEntry,    //!< silently lose one stored entry
    PerturbValue, //!< scale one value by (1 + 1e-6) — above tolerance
    ScaleValues,  //!< scale every value by 1.001
    GrowDim,      //!< declare one mode one larger than it is
};

inline constexpr Mutation kAllMutations[] = {
    Mutation::DropEntry,
    Mutation::PerturbValue,
    Mutation::ScaleValues,
    Mutation::GrowDim,
};

const char *mutationName(Mutation m);

/**
 * Apply @p m to a copy of @p coo. Mutations that need stored entries
 * (DropEntry, PerturbValue, ScaleValues) degrade to GrowDim on an
 * empty tensor, so every requested mutation changes semantics.
 */
tensor::CooTensor applyMutation(const tensor::CooTensor &coo, Mutation m);

/** Oracle knobs. */
struct OracleConfig
{
    tensor::Compare cmp{}; //!< cross-leg tolerance
    int lanes = 4;      //!< lane count for the TMU programs
    /** Seed for the dense/sparse operand vectors the kernels need. */
    std::uint64_t operandSeed = 0x0badcafe;
    /**
     * Enable the O(dim^3)-ish legs (dense comparators, brute-force
     * triangle count, engine-vs-interpreter record streams): still
     * bounded, but worth skipping for large corpus replays. The TMU
     * value legs run either way.
     */
    bool heavy = true;
};

/** One oracle verdict: ok iff no leg pair diverged. */
struct OracleResult
{
    std::vector<std::string> failures; //!< one line per violated check
    bool ok() const { return failures.empty(); }
};

/** Run every order-2 leg over @p coo (must be canonical, order 2). */
OracleResult checkMatrix(const tensor::CooTensor &coo,
                         const OracleConfig &cfg = {},
                         Mutation mut = Mutation::None);

/** Run every order-3 leg over @p coo (must be canonical, order 3). */
OracleResult checkTensor3(const tensor::CooTensor &coo,
                          const OracleConfig &cfg = {},
                          Mutation mut = Mutation::None);

/** Dispatch on coo.order() (2 or 3). */
OracleResult checkAny(const tensor::CooTensor &coo,
                      const OracleConfig &cfg = {},
                      Mutation mut = Mutation::None);

} // namespace tmu::testing
