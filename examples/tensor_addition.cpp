/**
 * @file
 * SpKAdd walkthrough: sum K sparse matrices with the TMU's
 * hierarchical disjunctive mergers (paper Fig. 2 / Fig. 7), first on a
 * tiny example printing the msk predicates, then timed on a suite
 * surrogate.
 *
 *   ./examples/tensor_addition [inputId] [scaleDiv]
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tmu/functional.hpp"
#include "workloads/registry.hpp"

using namespace tmu;
using namespace tmu::workloads;

namespace {

void
tinyWalkthrough()
{
    // Two fibers from the paper's Fig. 2, as two 1-row matrices.
    tensor::CooTensor ca({1, 8}), cb({1, 8});
    ca.push2(0, 0, 1.0); // A
    ca.push2(0, 2, 2.0); // B (paper labels values A..F)
    ca.push2(0, 5, 3.0); // E
    cb.push2(0, 0, 4.0);
    cb.push2(0, 3, 5.0);
    cb.push2(0, 5, 6.0);
    ca.sortAndCombine();
    cb.sortAndCombine();
    std::vector<tensor::DcsrMatrix> parts = {
        tensor::csrToDcsr(tensor::cooToCsr(ca)),
        tensor::csrToDcsr(tensor::cooToCsr(cb))};

    plan::frontend::EinsumBindings fb;
    fb.ensembles["A^k"] = &parts;
    const plan::PlanSpec spec =
        plan::frontend::compileEinsum("Z(i,j; dcsr) = sum_k A^k(i,j; dcsr)",
                                      fb, {})
            .valueOrFatal();
    const int colCb = spec.callbackId("col");
    std::printf("Disjunctive merge of two fibers (msk stream):\n");
    engine::interpret(plan::lowerProgram(spec),
                      [colCb](const engine::OutqRecord &rec) {
        if (rec.callbackId != colCb)
            return;
        Value sum = 0.0;
        for (int i = 0; i < rec.mask.count(); ++i)
            sum += rec.f64(1, i);
        std::printf("  col=%lld msk=%lld%lld sum=%.0f\n",
                    static_cast<long long>(rec.i64(0, 0)),
                    static_cast<long long>((rec.mask.bits() >> 0) & 1),
                    static_cast<long long>((rec.mask.bits() >> 1) & 1),
                    sum);
    });
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string input = argc > 1 ? argv[1] : "M2";
    const Index scaleDiv = argc > 2 ? std::atoll(argv[2]) : 128;

    tinyWalkthrough();

    auto wl = makeWorkload("SpKAdd");
    std::printf("\nSpKAdd (k=8) on %s at 1/%lld scale...\n",
                input.c_str(), static_cast<long long>(scaleDiv));
    wl->prepare(input, scaleDiv);

    RunConfig cfg;
    cfg.mode = Mode::Baseline;
    const RunResult base = wl->run(cfg);
    cfg.mode = Mode::Tmu;
    const RunResult tmu = wl->run(cfg);

    TextTable t("SpKAdd " + input);
    t.header({"path", "cycles", "frontend%", "mispredicts",
              "verified"});
    t.row({"baseline", std::to_string(base.sim.cycles),
           TextTable::num(100.0 * base.sim.frontendFrac(), 1),
           std::to_string(base.sim.total.mispredicts),
           base.verified ? "yes" : "NO"});
    t.row({"tmu", std::to_string(tmu.sim.cycles),
           TextTable::num(100.0 * tmu.sim.frontendFrac(), 1),
           std::to_string(tmu.sim.total.mispredicts),
           tmu.verified ? "yes" : "NO"});
    t.print();
    std::printf("\nSpeedup: %.2fx (merging offloaded to the TMU)\n",
                static_cast<double>(base.sim.cycles) /
                    static_cast<double>(tmu.sim.cycles));
    return base.verified && tmu.verified ? 0 : 1;
}
