#include "registry.hpp"

#include "common/log.hpp"
#include "workloads/wl_einsum.hpp"
#include "workloads/wl_merge.hpp"
#include "workloads/wl_spmspm.hpp"
#include "workloads/wl_spmv.hpp"
#include "workloads/wl_tensor.hpp"

namespace tmu::workloads {

namespace {

/** Evaluated-set membership of a registry entry (Fig. 10 grouping). */
enum class Category {
    LinearAlgebra, //!< matrix inputs
    TensorAlgebra, //!< tensor inputs
    Unlisted,      //!< constructible by name, not part of the sweeps
};

/** One registry row: every consumer below derives from this table. */
struct RegistryEntry
{
    const char *name;
    Category category;
    EinsumPlan plan; //!< the workload's own einsum constant
    std::unique_ptr<Workload> (*factory)();
};

constexpr plan::Variant P1 = plan::Variant::P1;

constexpr RegistryEntry kRegistry[] = {
    {"SpMV", Category::LinearAlgebra, {SpmvWorkload::kEinsum, P1},
     [] { return std::unique_ptr<Workload>(new SpmvWorkload()); }},
    {"SpMSpM", Category::LinearAlgebra, {SpmspmWorkload::kEinsum, P1},
     [] { return std::unique_ptr<Workload>(new SpmspmWorkload()); }},
    {"SpKAdd", Category::LinearAlgebra, {SpkaddWorkload::kEinsum, P1},
     [] { return std::unique_ptr<Workload>(new SpkaddWorkload()); }},
    {"PR", Category::LinearAlgebra, {PagerankWorkload::kEinsum, P1},
     [] { return std::unique_ptr<Workload>(new PagerankWorkload()); }},
    {"TC", Category::LinearAlgebra, {TricountWorkload::kEinsum, P1},
     [] { return std::unique_ptr<Workload>(new TricountWorkload()); }},
    {"SpAdd", Category::Unlisted, {},
     [] { return std::unique_ptr<Workload>(new SpaddWorkload()); }},
    // Einsum-frontend workloads: compiled from a one-line expression,
    // no hand-written kernel code. Unlisted keeps the paper-figure
    // sweeps and committed perf baselines unchanged.
    {"SDDMM", Category::Unlisted, {SddmmWorkload::kEinsum, P1},
     [] { return std::unique_ptr<Workload>(new SddmmWorkload()); }},
    {"SpMM", Category::Unlisted, {SpmmWorkload::kEinsum, P1},
     [] { return std::unique_ptr<Workload>(new SpmmWorkload()); }},
    {"SpMM-SC", Category::Unlisted, {SpmmScatterWorkload::kEinsum, P1},
     [] {
         return std::unique_ptr<Workload>(new SpmmScatterWorkload());
     }},
    {"MTTKRP_MP", Category::TensorAlgebra, {MttkrpWorkload::kEinsum, P1},
     [] {
         return std::unique_ptr<Workload>(
             new MttkrpWorkload(MttkrpWorkload::Variant::P1));
     }},
    {"MTTKRP_CP", Category::TensorAlgebra,
     {MttkrpWorkload::kEinsum, plan::Variant::P2},
     [] {
         return std::unique_ptr<Workload>(
             new MttkrpWorkload(MttkrpWorkload::Variant::P2));
     }},
    {"SpTC", Category::TensorAlgebra, {},
     [] { return std::unique_ptr<Workload>(new SptcWorkload()); }},
    {"CP-ALS", Category::TensorAlgebra, {},
     [] { return std::unique_ptr<Workload>(new CpalsWorkload()); }},
};

const RegistryEntry *
findEntry(const std::string &name)
{
    for (const RegistryEntry &e : kRegistry) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

TmuError
unknownName(const std::string &name)
{
    std::string known;
    for (const auto &w : registeredWorkloads())
        known += (known.empty() ? "" : ", ") + w;
    return TMU_ERR(Errc::UnknownName,
                   "unknown workload '%s' (known: %s)", name.c_str(),
                   known.c_str());
}

std::vector<std::string>
namesOf(Category category)
{
    std::vector<std::string> names;
    for (const RegistryEntry &e : kRegistry) {
        if (e.category == category)
            names.emplace_back(e.name);
    }
    return names;
}

} // namespace

Expected<std::unique_ptr<Workload>>
tryMakeWorkload(const std::string &name)
{
    if (const RegistryEntry *e = findEntry(name))
        return e->factory();
    return unknownName(name);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    return tryMakeWorkload(name).valueOrFatal();
}

std::vector<std::string>
linearAlgebraWorkloads()
{
    return namesOf(Category::LinearAlgebra);
}

std::vector<std::string>
tensorAlgebraWorkloads()
{
    return namesOf(Category::TensorAlgebra);
}

std::vector<std::string>
allWorkloads()
{
    auto all = linearAlgebraWorkloads();
    for (auto &t : tensorAlgebraWorkloads())
        all.push_back(std::move(t));
    return all;
}

std::vector<std::string>
registeredWorkloads()
{
    std::vector<std::string> names;
    for (const RegistryEntry &e : kRegistry)
        names.emplace_back(e.name);
    return names;
}

Expected<EinsumPlan>
workloadEinsum(const std::string &name)
{
    if (const RegistryEntry *e = findEntry(name))
        return e->plan;
    return unknownName(name);
}

} // namespace tmu::workloads
