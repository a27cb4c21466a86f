/**
 * @file
 * Metamorphic invariants: relations that must hold between *runs*.
 *
 * Where the differential oracle (oracle.hpp) cross-checks independent
 * implementations of one computation, the metamorphic checker derives
 * a second input from the first through a transformation with a known
 * effect on the output — scale the values by exactly 2.0, permute the
 * rows, swap addition operands — and verifies the predicted relation.
 * These catch bugs that are consistent across implementations (e.g. a
 * shared traversal-order assumption) which differential legs cannot
 * see.
 *
 * The simulator invariants live here too: the event-driven scheduler
 * must produce bit-identical architectural stats to the dense
 * per-cycle loop (only sim.scheduler.* bookkeeping may differ), and
 * running the same configuration twice must be bit-identical.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/compare.hpp"
#include "tensor/coo.hpp"

namespace tmu::testing {

/**
 * Check the kernel metamorphic identities over an order-2 input:
 * scalar scaling by 2.0 (exact in IEEE), row permutation, the
 * transpose dot identity b2.(A b1) == (A^T b2).b1, SpAdd
 * commutativity (exact) and associativity (tolerance), and the merge
 * algebra laws (conjunction == intersection, disjunction == union,
 * conj subset-of disj, disj(f, f) doubles values). Returns one line
 * per violated relation.
 */
std::vector<std::string>
checkMatrixMetamorphic(const tensor::CooTensor &coo,
                       std::uint64_t operandSeed,
                       const tensor::Compare &cmp = {});

/**
 * Run registry workload @p wlName on @p inputId at @p scaleDiv and
 * check the simulator invariants: run-twice bit-identical, and
 * event-driven == dense scheduling for every stat outside
 * sim.scheduler.*. Expensive (two prepares, three runs) — the fuzzer
 * samples it sparsely.
 */
std::vector<std::string>
checkSimInvariants(const std::string &wlName, const std::string &inputId,
                   Index scaleDiv);

} // namespace tmu::testing
