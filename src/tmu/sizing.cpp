#include "sizing.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace tmu::engine {

QueuePlan
planQueues(const TmuProgram &program, std::size_t perLaneBytes,
           int minDepth)
{
    TMU_ASSERT(perLaneBytes >= kMinPerLaneBytes);
    const int layers = program.numLayers();

    // Volume weight of each layer: cumulative expected elements.
    std::vector<double> weight(static_cast<size_t>(layers), 1.0);
    double cumulative = 1.0;
    for (int l = 0; l < layers; ++l) {
        const TuDesc &tu = program.layer(l).tus.front();
        // Outer layers iterate long fibers too, but only their *queue
        // pressure* matters: inner layers re-load per outer element.
        cumulative *= std::max<double>(
            1.0, std::sqrt(static_cast<double>(tu.expectedFiberLen)));
        weight[static_cast<size_t>(l)] = cumulative;
    }
    double total = 0.0;
    for (int l = 0; l < layers; ++l) {
        // Each element occupies 8 bytes in every stream of the TU.
        const auto streams = static_cast<double>(
            program.layer(l).tus.front().streams.size());
        weight[static_cast<size_t>(l)] *= streams;
        total += weight[static_cast<size_t>(l)];
    }

    QueuePlan plan;
    for (int l = 0; l < layers; ++l) {
        const auto streams = static_cast<double>(
            program.layer(l).tus.front().streams.size());
        const double bytes = static_cast<double>(perLaneBytes) *
                             weight[static_cast<size_t>(l)] / total;
        const int depth = static_cast<int>(bytes / (8.0 * streams));
        plan.depthPerLayer.push_back(std::max(minDepth, depth));
    }
    return plan;
}

} // namespace tmu::engine
