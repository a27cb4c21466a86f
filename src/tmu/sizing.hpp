/**
 * @file
 * Analytical TU queue-sizing model (paper Sec. 5.5).
 *
 * All TUs of a lane share the lane's storage; queues are carved out at
 * configuration time proportionally to how much data each layer loads,
 * estimated from the expected nnz-per-fiber hints. Rightmost layers
 * traverse more elements and get deeper queues.
 */

#pragma once

#include <vector>

#include "tmu/program.hpp"

namespace tmu::engine {

/** Smallest per-lane stream storage planQueues accepts: one line. */
inline constexpr std::size_t kMinPerLaneBytes = 64;

/** Queue depths (elements) per layer, identical across a layer's TUs. */
struct QueuePlan
{
    std::vector<int> depthPerLayer;

    int
    depth(int layer) const
    {
        return depthPerLayer.at(static_cast<size_t>(layer));
    }
};

/**
 * Allocate @p perLaneBytes of stream storage across a program's layers.
 *
 * Each element costs 8 bytes per stream; a layer's weight is the
 * product of expected fiber lengths of all layers up to and including
 * it (the volume a fully-unrolled traversal would load), normalized.
 * Every queue gets at least @p minDepth entries.
 */
QueuePlan planQueues(const TmuProgram &program,
                     std::size_t perLaneBytes, int minDepth = 2);

} // namespace tmu::engine
