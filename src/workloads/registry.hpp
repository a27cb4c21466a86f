/**
 * @file
 * Workload registry: the evaluated workload set by name (paper Sec. 6).
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace tmu::workloads {

/**
 * Instantiate a workload by name; UnknownName error (listing the known
 * names) on a lookup miss, so drivers can skip and continue.
 */
Expected<std::unique_ptr<Workload>>
tryMakeWorkload(const std::string &name);

/** Instantiate a workload by name; fatals on unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** All evaluated workload names, Fig. 10 order. */
std::vector<std::string> linearAlgebraWorkloads(); //!< matrix inputs
std::vector<std::string> tensorAlgebraWorkloads(); //!< tensor inputs
std::vector<std::string> allWorkloads();

/** Every constructible workload name, evaluated or not, table order. */
std::vector<std::string> registeredWorkloads();

/** The einsum a registered workload compiles its plans from. */
struct EinsumPlan
{
    const char *einsum = nullptr; //!< null: no einsum plan
    plan::Variant variant = plan::Variant::P1; //!< compile option
};

/** Einsum plan of a registered workload; UnknownName on a miss. */
Expected<EinsumPlan> workloadEinsum(const std::string &name);

} // namespace tmu::workloads
