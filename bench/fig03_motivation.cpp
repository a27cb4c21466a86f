/**
 * @file
 * Paper Fig. 3: normalized cycles spent stalling for the three stage
 * proxies (SpMV = traversal, SpMSpM = compute, SpAdd = merge) on an
 * HPC-class part (A64FX-like: modest OoO, high bandwidth) and a
 * datacenter part (Graviton3-like: aggressive OoO, big caches),
 * software baselines only.
 *
 * Expected shape (paper Sec. 3 findings 1-4): SpMV backend stalls
 * shrink on the big-cache core but frontend stalls remain; SpMSpM has
 * more committing cycles; SpAdd is frontend-dominated, worst on the
 * weaker OoO core.
 */

#include "bench_util.hpp"

using namespace tmu;
using namespace tmu::bench;
using namespace tmu::workloads;

int
main()
{
    const Index div = matrixScale();
    const std::vector<std::pair<std::string, sim::SystemConfig>> archs =
        {{"a64fx-like",
          sim::shrinkCaches(sim::SystemConfig::a64fxLike(), div)},
         {"graviton3-like",
          sim::shrinkCaches(sim::SystemConfig::graviton3Like(), div)}};
    const std::vector<std::string> kernels = {"SpMV", "SpMSpM",
                                              "SpAdd"};
    const std::vector<std::string> inputs = {"M1", "M2", "M3",
                                             "M4", "M5", "M6"};

    BenchReport rep("fig03_motivation");
    printBanner("Fig. 3 - motivation: cycle stall breakdown",
                defaultConfig(matrixScale()));

    TextTable t("normalized cycles (fraction of total)");
    t.header({"kernel", "arch", "input", "commit", "frontend",
              "backend"});
    TextTable avg("Fig. 3 bars (mean over M1-M6)");
    avg.header({"kernel", "arch", "commit", "frontend", "backend"});

    for (const auto &kernel : kernels) {
        auto wl = makeWorkload(kernel);
        // arch -> accumulators
        std::vector<RunningStat> commit(archs.size()),
            frontend(archs.size()), backend(archs.size());
        for (const auto &input : inputs) {
            wl->prepare(input, scaleFor(*wl));
            for (size_t a = 0; a < archs.size(); ++a) {
                RunConfig cfg;
                cfg.system = archs[a].second;
                // Profiling-style runs: two active cores, so neither
                // machine is bandwidth-starved and the cache/OoO
                // contrast (the point of Fig. 3) dominates.
                cfg.system.cores = 2;
                cfg.mode = Mode::Baseline;
                const RunResult r = wl->run(cfg);
                t.row({kernel, archs[a].first, input,
                       TextTable::num(r.sim.commitFrac(), 3),
                       TextTable::num(r.sim.frontendFrac(), 3),
                       TextTable::num(r.sim.backendFrac(), 3)});
                commit[a].add(r.sim.commitFrac());
                frontend[a].add(r.sim.frontendFrac());
                backend[a].add(r.sim.backendFrac());
            }
        }
        for (size_t a = 0; a < archs.size(); ++a) {
            avg.row({kernel, archs[a].first,
                     TextTable::num(commit[a].mean(), 3),
                     TextTable::num(frontend[a].mean(), 3),
                     TextTable::num(backend[a].mean(), 3)});
        }
    }
    rep.print(t);
    std::printf("\n");
    rep.print(avg);
    return 0;
}
