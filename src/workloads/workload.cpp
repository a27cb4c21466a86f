#include "workload.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "sim/fault.hpp"
#include "sim/statsdump.hpp"
#include "tensor/compare.hpp"
#include "tmu/outq.hpp"

namespace tmu::workloads {

namespace {

using detail::format;
using LL = long long;

/**
 * The tolerance policy, indexed by Tolerance. A value passes when any
 * bound of its class holds; docs/TESTING.md "Run verification" lists
 * the configurations behind the measured worst cases.
 *
 *   Exact      bit for bit     SpMV PR SpMSpM SpKAdd SpAdd SDDMM SpMM
 *                              SpMM-SC: every path reduces in the
 *                              reference's order
 *   Reordered  abs 1e-12, rel 1e-9 or 64 ULP (the Compare defaults)
 *                              MTTKRP: private per-core accumulators
 *                              summed after the run (worst 46 ULP)
 *   Solve      abs 1e-12, rel 1e-8 or 64 ULP
 *                              CP-ALS: Cholesky solves on those sums
 *                              (worst rel 9.6e-10)
 *
 * Integer outputs (TC, SpTC) compare exactly through verifyCounts.
 */
constexpr tensor::Compare kPolicy[] = {
    {0.0, 0.0, 0},
    {1e-12, 1e-9, 64},
    {1e-12, 1e-8, 64},
};

const tensor::Compare &
boundOf(Tolerance tol)
{
    return kPolicy[static_cast<size_t>(tol)];
}

/** Record a verdict: verified iff there is no mismatch. */
bool
verdict(RunResult &res, std::string mismatch)
{
    res.verified = mismatch.empty();
    res.mismatch = std::move(mismatch);
    return res.verified;
}

std::string
valueMismatch(Value got, Value want)
{
    return format("got %.17g, want %.17g (%llu ulp)", got, want,
                  static_cast<unsigned long long>(
                      tensor::ulpDistance(got, want)));
}

/** First mismatch of core @p c's collectors on rows [beg, end). */
std::string
diffCore(int c, Index beg, Index end, const plan::PlanState &st,
         const tensor::CsrMatrix &ref, const tensor::Compare &cmp)
{
    const auto at = [c](Index i, Index j) {
        return format("core %d row %lld col %lld: ", c, static_cast<LL>(i),
                      static_cast<LL>(j));
    };
    const size_t n = st.idxs.size();
    const bool perElement = st.rowNnz.empty();
    if (st.vals.size() != n || (perElement && st.rows.size() != n) ||
        st.rowNnz.size() > static_cast<size_t>(end - beg)) {
        return format("core %d: %zu columns, %zu values, %zu row "
                      "coordinates, %zu row counts for rows [%lld, %lld)",
                      c, n, st.vals.size(), st.rows.size(),
                      st.rowNnz.size(), static_cast<LL>(beg),
                      static_cast<LL>(end));
    }
    size_t q = 0;
    for (Index i = beg; i < end; ++i) {
        // [q, e): the elements the core emitted for row i.
        size_t e = q;
        const auto lr = static_cast<size_t>(i - beg);
        if (perElement) {
            while (e < n && st.rows[e] == i)
                ++e;
        } else if (lr < st.rowNnz.size()) {
            e += static_cast<size_t>(st.rowNnz[lr]);
        }
        if (e > n || (!perElement && lr >= st.rowNnz.size()))
            return format("core %d row %lld: no row count, or one past "
                          "the core's %zu elements",
                          c, static_cast<LL>(i), n);
        for (Index p = ref.rowBegin(i); p < ref.rowEnd(i) || q < e;
             ++p, ++q) {
            const auto sp = static_cast<size_t>(p);
            if (q == e)
                return at(i, ref.idxs()[sp]) +
                       format("missing, want %.17g", ref.vals()[sp]);
            if (p == ref.rowEnd(i))
                return at(i, st.idxs[q]) +
                       format("extra element %.17g", st.vals[q]);
            if (st.idxs[q] != ref.idxs()[sp])
                return at(i, st.idxs[q]) +
                       format("the reference has col %lld",
                              static_cast<LL>(ref.idxs()[sp]));
            if (!cmp.close(st.vals[q], ref.vals()[sp]))
                return at(i, st.idxs[q]) +
                       valueMismatch(st.vals[q], ref.vals()[sp]);
        }
    }
    if (q == n)
        return {};
    return format("core %d: %zu elements past row %lld, its last", c,
                  n - q, static_cast<LL>(end - 1));
}

/** Sum one live CoreStats member over every core. */
std::function<double()>
coreSum(sim::System *sys, Cycle sim::CoreStats::*member)
{
    return [sys, member] {
        Cycle n = 0;
        for (int c = 0; c < sys->numCores(); ++c)
            n += sys->core(c).stats().*member;
        return static_cast<double>(n);
    };
}

/** The standard core/memory column set of every telemetry stream. */
void
addSystemColumns(sim::TelemetrySampler &t, sim::System *sys)
{
    using CS = sim::CoreStats;
    t.addColumn("cores.cycles", "cycles", coreSum(sys, &CS::cycles));
    t.addColumn("cores.retiredOps", "ops", [sys] {
        std::uint64_t n = 0;
        for (int c = 0; c < sys->numCores(); ++c)
            n += sys->core(c).stats().retiredOps;
        return static_cast<double>(n);
    });
    t.addColumn("cores.attr.retiring", "cycles",
                coreSum(sys, &CS::attrRetiring));
    t.addColumn("cores.attr.frontendBound", "cycles",
                coreSum(sys, &CS::attrFrontendBound));
    t.addColumn("cores.attr.backendMemL1", "cycles",
                coreSum(sys, &CS::attrBackendMemL1));
    t.addColumn("cores.attr.backendMemL2", "cycles",
                coreSum(sys, &CS::attrBackendMemL2));
    t.addColumn("cores.attr.backendMemLlc", "cycles",
                coreSum(sys, &CS::attrBackendMemLlc));
    t.addColumn("cores.attr.backendMemDram", "cycles",
                coreSum(sys, &CS::attrBackendMemDram));
    t.addColumn("cores.attr.backendExec", "cycles",
                coreSum(sys, &CS::attrBackendExec));
    t.addColumn("cores.attr.outqEmpty", "cycles",
                coreSum(sys, &CS::attrOutqEmpty));
    t.addColumn("cores.supply.occupied", "cycles",
                coreSum(sys, &CS::supplyOccupied));
    t.addColumn("cores.supply.starved", "cycles",
                coreSum(sys, &CS::supplyStarved));
    t.addColumn("cores.supply.backpressured", "cycles",
                coreSum(sys, &CS::supplyBackpressured));
    t.addColumn("cores.supply.drained", "cycles",
                coreSum(sys, &CS::supplyDrained));
    t.addColumn("dram.readBytes", "bytes", [sys] {
        return static_cast<double>(sys->mem().dramStats().readBytes);
    });
    t.addColumn("dram.writeBytes", "bytes", [sys] {
        return static_cast<double>(sys->mem().dramStats().writeBytes);
    });
}

} // namespace

void
mergeCounterSnapshots(stats::StatSnapshot &into,
                      const stats::StatSnapshot &phase)
{
    for (const stats::SnapshotEntry &e : phase.entries) {
        if (e.kind != stats::StatKind::U64)
            continue;
        bool merged = false;
        for (stats::SnapshotEntry &have : into.entries) {
            if (have.name == e.name) {
                have.u += e.u;
                merged = true;
                break;
            }
        }
        if (!merged)
            into.entries.push_back(e);
    }
}

bool
verifySparse(RunResult &res, const Partition &part,
             const std::vector<plan::PlanState> &out,
             const tensor::CsrMatrix &ref, Tolerance tol)
{
    TMU_ASSERT(out.size() == static_cast<size_t>(part.cores));
    for (int c = 0; c < part.cores; ++c) {
        const auto [beg, end] = part.range(c);
        std::string m = diffCore(c, beg, end, out[static_cast<size_t>(c)],
                                 ref, boundOf(tol));
        if (!m.empty())
            return verdict(res, std::move(m));
    }
    return verdict(res, {});
}

bool
verifyDense(RunResult &res, const Value *ref, Index rows, Index cols,
            const std::vector<const Value *> &parts, Tolerance tol)
{
    const tensor::Compare &cmp = boundOf(tol);
    for (Index i = 0; i < rows; ++i) {
        for (Index j = 0; j < cols; ++j) {
            const auto at = static_cast<size_t>(i * cols + j);
            Value sum = 0.0;
            for (const Value *part : parts)
                sum += part[at];
            if (!cmp.close(sum, ref[at])) {
                return verdict(res, format("row %lld col %lld: %s",
                                           static_cast<LL>(i),
                                           static_cast<LL>(j),
                                           valueMismatch(sum, ref[at])
                                               .c_str()));
            }
        }
    }
    return verdict(res, {});
}

bool
verifyCounts(RunResult &res, int core, Index firstRow,
             std::span<const Index> got, std::span<const Index> want)
{
    if (got.size() != want.size())
        return verdict(res, format("core %d: %zu counts for %zu rows", core,
                                   got.size(), want.size()));
    for (size_t k = 0; k < got.size(); ++k) {
        if (got[k] == want[k])
            continue;
        const Index row = firstRow + static_cast<Index>(k);
        const std::string where =
            core < 0 ? std::string("total")
                     : format("core %d row %lld", core, static_cast<LL>(row));
        return verdict(res, format("%s: count %lld, want %lld",
                                   where.c_str(), static_cast<LL>(got[k]),
                                   static_cast<LL>(want[k])));
    }
    return verdict(res, {});
}

void
reserveOutput(plan::PlanState &st, const tensor::CsrMatrix &ref,
              Index beg, Index end, bool rows)
{
    const auto nnz =
        static_cast<size_t>(ref.rowBegin(end) - ref.rowBegin(beg));
    st.idxs.reserve(nnz);
    st.vals.reserve(nnz);
    if (rows)
        st.rows.reserve(nnz);
    else
        st.rowNnz.reserve(static_cast<size_t>(end - beg));
}

RunHarness::RunHarness(const RunConfig &cfg)
    : cfg_(cfg), system_(std::make_unique<sim::System>(cfg.system))
{
    if (cfg_.trace != nullptr)
        system_->setTracer(cfg_.trace, cfg_.tracePid);
    system_->mem().setFaultInjector(cfg_.faults);
    if (cfg_.telemetry != nullptr) {
        addSystemColumns(*cfg_.telemetry, system_.get());
        if (cfg_.trace != nullptr)
            cfg_.telemetry->setTracer(cfg_.trace, cfg_.tracePid);
        system_->setTelemetry(cfg_.telemetry);
    }
}

void
RunHarness::addPlan(int c, const plan::PlanSpec &spec, plan::PlanState &st)
{
    if (cfg_.mode == Mode::Baseline) {
        addBaselineTrace(
            c, plan::lowerTrace(spec,
                                {&st.idxs, &st.vals, &st.rowNnz, &st.count},
                                simd()));
        return;
    }
    engine::OutqSource &src = addTmuProgram(c, plan::lowerProgram(spec));
    plan::initPlanState(spec, st);
    plan::bindHandlers(spec, src, st);
}

void
RunHarness::addBaselineTrace(int c, sim::Trace trace)
{
    TMU_ASSERT(cfg_.mode == Mode::Baseline);
    traces_.push_back(
        std::make_unique<sim::CoroutineSource>(std::move(trace)));
    system_->attachSource(c, traces_.back().get());
}

engine::OutqSource &
RunHarness::addTmuProgram(int c, const engine::TmuProgram &prog)
{
    TMU_ASSERT(cfg_.mode == Mode::Tmu);
    for (int l = 0; l < prog.numLayers(); ++l) {
        if (prog.layer(l).lanes() > cfg_.tmu.lanes)
            throw std::runtime_error(
                format("layer %d uses %d lanes but the engine has %d", l,
                       prog.layer(l).lanes(), cfg_.tmu.lanes));
    }
    engines_.push_back(std::make_unique<engine::TmuEngine>(
        c, cfg_.tmu, system_->mem(), prog));
    if (cfg_.trace != nullptr)
        engines_.back()->setTracer(cfg_.trace, cfg_.tracePid);
    engines_.back()->setFaultInjector(cfg_.faults);
    if (cfg_.telemetry != nullptr) {
        const engine::TmuEngine *eng = engines_.back().get();
        const std::string p = "tmu" + std::to_string(c) + ".";
        cfg_.telemetry->addColumn(p + "outqOccupancy", "bytes", [eng] {
            return static_cast<double>(eng->outqOccupancyBytes());
        });
        cfg_.telemetry->addColumn(p + "busyCycles", "cycles", [eng] {
            return static_cast<double>(eng->stats().busyCycles);
        });
        using ES = engine::EngineStats;
        const std::pair<const char *, Cycle ES::*> buckets[] = {
            {"attr.fill", &ES::fillCycles},
            {"attr.traverse", &ES::traverseCycles},
            {"attr.drain", &ES::drainCycles},
            {"attr.memsysStall", &ES::memsysStallCycles},
            {"attr.backpressure", &ES::backpressureCycles},
        };
        for (const auto &[name, member] : buckets) {
            cfg_.telemetry->addColumn(
                p + name, "cycles", [eng, member = member] {
                    return static_cast<double>(eng->stats().*member);
                });
        }
    }
    system_->addDevice(engines_.back().get());
    outqs_.push_back(
        std::make_unique<engine::OutqSource>(*engines_.back()));
    system_->attachSource(c, outqs_.back().get());
    return *outqs_.back();
}

RunResult
RunHarness::finish()
{
    RunResult res;
    res.sim = system_->run();
    double rwSum = 0.0;
    int rwCount = 0;
    for (const auto &engine : engines_) {
        const engine::EngineStats &s = engine->stats();
        res.tmuRequests += s.requestsIssued;
        res.tmuElements += s.elementsPushed;
        if (s.rwChunks > 0) {
            rwSum += s.readToWriteRatio();
            ++rwCount;
        }
    }
    if (rwCount > 0)
        res.rwRatio = rwSum / rwCount;

    // Snapshot the full registry while the harness models are alive so
    // callers can export stats after this object is destroyed.
    stats::StatRegistry reg;
    sim::buildSimRegistry(reg, res.sim, system_->mem(),
                          /*extended=*/true);
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        const std::string p =
            "tmu" + std::to_string(engines_[i]->coreId()) + ".";
        engines_[i]->registerStats(reg, p, /*extended=*/true);
        outqs_[i]->registerStats(reg, p);
    }
    if (cfg_.faults != nullptr)
        cfg_.faults->registerStats(reg, "faults.");
    if (!partition_.bounds.empty()) {
        // Load-balance family of the run's work distribution: how much
        // the chosen --partition strategy actually evened out the work.
        const Partition &p = partition_;
        std::uint64_t nnz = 0, rows = 0;
        for (int c = 0; c < p.cores; ++c) {
            nnz += p.nnzAssigned[static_cast<size_t>(c)];
            rows += p.rowsAssigned[static_cast<size_t>(c)];
        }
        reg.scalarU64("cores.balance.nnzAssigned",
                      "work units distributed over the cores",
                      [nnz] { return nnz; });
        reg.scalarU64("cores.balance.rowsAssigned",
                      "outer iterations distributed over the cores",
                      [rows] { return rows; });
        const double ratio = p.imbalanceRatio();
        reg.formula("cores.balance.imbalanceRatio",
                    "max over mean per-core assigned work",
                    [ratio] { return ratio; });
        for (int c = 0; c < p.cores; ++c) {
            const std::string cp =
                "core" + std::to_string(c) + ".balance.";
            const std::uint64_t cn =
                p.nnzAssigned[static_cast<size_t>(c)];
            const std::uint64_t cr =
                p.rowsAssigned[static_cast<size_t>(c)];
            reg.scalarU64(cp + "nnzAssigned",
                          "work units assigned to this core",
                          [cn] { return cn; });
            reg.scalarU64(cp + "rowsAssigned",
                          "outer iterations assigned to this core",
                          [cr] { return cr; });
        }
    }
    res.stats = reg.snapshot();
    return res;
}

} // namespace tmu::workloads
