/**
 * @file
 * google-benchmark microbenchmarks for the library substrate itself
 * (host-native performance, not simulated time): reference kernels,
 * merge iterators, format converters, the functional interpreter and
 * the cycle engine's simulation rate.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "kernels/spadd.hpp"
#include "kernels/spmspm.hpp"
#include "kernels/spmv.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tensor/merge.hpp"
#include "tmu/engine.hpp"
#include "tmu/functional.hpp"

using namespace tmu;

namespace {

tensor::CsrMatrix
benchMatrix(Index rows, double nnzPerRow)
{
    tensor::CsrGenConfig cfg;
    cfg.rows = rows;
    cfg.cols = rows;
    cfg.nnzPerRow = nnzPerRow;
    cfg.seed = 77;
    return tensor::randomCsr(cfg);
}

void
BM_SpmvRef(benchmark::State &state)
{
    const auto a = benchMatrix(state.range(0), 8);
    tensor::DenseVector b(a.cols(), 1.0);
    for (auto _ : state) {
        auto x = kernels::spmvRef(a, b);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvRef)->Arg(1 << 12)->Arg(1 << 15);

void
BM_SpmspmRef(benchmark::State &state)
{
    const auto a = benchMatrix(state.range(0), 6);
    const auto at = tensor::transposeCsr(a);
    for (auto _ : state) {
        auto z = kernels::spmspmRef(a, at);
        benchmark::DoNotOptimize(z.nnz());
    }
}
BENCHMARK(BM_SpmspmRef)->Arg(1 << 10)->Arg(1 << 12);

void
BM_DisjunctiveMerge(benchmark::State &state)
{
    Rng rng(5);
    std::vector<tensor::FiberView> views;
    std::vector<std::vector<Index>> idxs(8);
    std::vector<std::vector<Value>> vals(8);
    for (int f = 0; f < 8; ++f) {
        for (Index c = 0; c < state.range(0); ++c) {
            if (rng.nextBool(0.5)) {
                idxs[static_cast<size_t>(f)].push_back(c);
                vals[static_cast<size_t>(f)].push_back(1.0);
            }
        }
        views.push_back({idxs[static_cast<size_t>(f)],
                         vals[static_cast<size_t>(f)]});
    }
    for (auto _ : state) {
        Value acc = 0.0;
        tensor::disjunctiveMerge(
            std::span<const tensor::FiberView>(views),
            [&](Index, LaneMask m, auto get) {
                for (unsigned l = 0; l < 8; ++l) {
                    if (m.test(l))
                        acc += get(l);
                }
            });
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_DisjunctiveMerge)->Arg(1 << 10)->Arg(1 << 14);

void
BM_CooToCsr(benchmark::State &state)
{
    Rng rng(9);
    tensor::CooTensor coo({state.range(0), state.range(0)});
    for (Index e = 0; e < state.range(0) * 8; ++e) {
        coo.push2(rng.nextIndex(0, state.range(0)),
                  rng.nextIndex(0, state.range(0)), 1.0);
    }
    coo.sortAndCombine();
    for (auto _ : state) {
        auto csr = tensor::cooToCsr(coo);
        benchmark::DoNotOptimize(csr.nnz());
    }
}
BENCHMARK(BM_CooToCsr)->Arg(1 << 12)->Arg(1 << 15);

/** The compiled SpMV P1 program over all of @p a, eight lanes. */
engine::TmuProgram
spmvProgram(const tensor::CsrMatrix &a, const tensor::DenseVector &b,
            tensor::DenseVector &x)
{
    plan::frontend::EinsumBindings fb;
    fb.csr["A"] = &a;
    fb.vec["B"] = &b;
    fb.outVec = &x;
    return plan::lowerProgram(
        plan::frontend::compileEinsum("Z(i) = A(i,j; csr) * B(j; dense)",
                                      fb, {})
            .valueOrFatal());
}

void
BM_FunctionalInterpreterSpmv(benchmark::State &state)
{
    const auto a = benchMatrix(state.range(0), 8);
    tensor::DenseVector b(a.cols(), 1.0), x(a.rows());
    const auto p = spmvProgram(a, b, x);
    for (auto _ : state) {
        std::uint64_t n = 0;
        engine::interpret(p,
                          [&](const engine::OutqRecord &) { ++n; });
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_FunctionalInterpreterSpmv)->Arg(1 << 12);

void
BM_TimingEngineSpmv(benchmark::State &state)
{
    // Simulation rate of the cycle engine (simulated cycles/second
    // reported as items).
    const auto a = benchMatrix(state.range(0), 8);
    tensor::DenseVector b(a.cols(), 1.0), x(a.rows());
    const auto p = spmvProgram(a, b, x);
    sim::SystemConfig sc = sim::SystemConfig::neoverseN1();
    sc.cores = 1;
    for (auto _ : state) {
        sim::MemorySystem mem(sc);
        engine::TmuEngine eng(0, engine::EngineConfig{}, mem, p);
        Cycle now = 0;
        engine::OutqRecord rec;
        Addr addr;
        while (true) {
            ++now;
            const bool active = eng.tick(now);
            while (eng.popRecord(now, rec, addr)) {
            }
            if (!active && eng.allConsumed())
                break;
        }
        benchmark::DoNotOptimize(now);
        state.counters["sim_cycles"] = static_cast<double>(now);
    }
}
BENCHMARK(BM_TimingEngineSpmv)->Arg(1 << 11);

} // namespace

BENCHMARK_MAIN();
