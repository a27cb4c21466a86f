/**
 * @file
 * Shared plumbing for the figure/table benches: input scaling knobs,
 * paired baseline/TMU runs, and geomean collection.
 *
 * Every bench binary regenerates one paper artifact; absolute numbers
 * come from the simulator, the *shape* (who wins, by what factor,
 * where crossovers fall) is what reproduces the paper. Scale knobs:
 *   TMU_SCALE_MAT  divisor for matrix surrogates (default 128)
 *   TMU_SCALE_TEN  divisor for tensor surrogates (default 64)
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/writers.hpp"
#include "sim/sweep.hpp"
#include "workloads/registry.hpp"

namespace tmu::bench {

inline Index
envScale(const char *name, Index def)
{
    if (const char *s = std::getenv(name)) {
        const Index v = std::atoll(s);
        if (v >= 1)
            return v;
    }
    return def;
}

inline Index
matrixScale()
{
    return envScale("TMU_SCALE_MAT", 128);
}

inline Index
tensorScale()
{
    return envScale("TMU_SCALE_TEN", 64);
}

/** Scale divisor appropriate for a workload's input family. */
inline Index
scaleFor(const workloads::Workload &wl)
{
    return wl.inputs().front()[0] == 'T' ? tensorScale() : matrixScale();
}

/** The default Table-5 run configuration at the bench's input scale. */
inline workloads::RunConfig
defaultConfig(Index scaleDiv)
{
    workloads::RunConfig cfg;
    cfg.system = sim::shrinkCaches(cfg.system, scaleDiv);
    return cfg;
}

/** One baseline+TMU pair on a prepared workload. */
struct PairResult
{
    workloads::RunResult base;
    workloads::RunResult tmu;

    double
    speedup() const
    {
        return tmu.sim.cycles
                   ? static_cast<double>(base.sim.cycles) /
                         static_cast<double>(tmu.sim.cycles)
                   : 0.0;
    }

    bool verified() const { return base.verified && tmu.verified; }
};

inline PairResult
runPair(workloads::Workload &wl, workloads::RunConfig cfg)
{
    PairResult pr;
    cfg.mode = workloads::Mode::Baseline;
    pr.base = wl.run(cfg);
    cfg.mode = workloads::Mode::Tmu;
    pr.tmu = wl.run(cfg);
    if (!pr.verified()) {
        std::fprintf(stderr,
                     "WARNING: %s failed verification (base=%d tmu=%d)\n",
                     wl.name().c_str(), pr.base.verified,
                     pr.tmu.verified);
    }
    return pr;
}

/**
 * Host threads for bench sweeps: TMU_BENCH_JOBS (default 1).
 * 0 asks for one worker per hardware thread, like `tmu_run --jobs 0`.
 */
inline int
benchJobs()
{
    if (const char *s = std::getenv("TMU_BENCH_JOBS")) {
        const int v = std::atoi(s);
        if (v >= 1)
            return v;
        if (v == 0 && s[0] == '0') // explicit 0, not parse garbage
            return sim::SweepRunner::resolveJobs(0);
    }
    return 1;
}

/**
 * Run fn(0..count-1) on a SweepRunner pool. Tasks must be independent
 * and write into caller-owned, index-addressed storage; consuming the
 * results by index afterwards keeps every bench table byte-identical
 * for any job count (see docs/PARALLEL_SWEEPS.md).
 */
inline void
parallelFor(std::size_t count, int jobs,
            const std::function<void(std::size_t)> &fn)
{
    sim::SweepRunner(jobs).run(count, fn);
}

/** One (workload, input) cell of a paired sweep. */
struct PairCell
{
    std::string workload;
    std::string input;
    workloads::Workload::Class cls{};
    PairResult pr;
};

/**
 * The common figure-bench sweep: baseline+TMU for every input of every
 * named workload, on a SweepRunner pool. Each task owns a private
 * Workload instance (prepare() fills per-instance input state), so
 * tasks never share mutable data; cells come back in (workload x
 * input) enumeration order no matter which pool thread ran them.
 */
inline std::vector<PairCell>
runPairSweep(const std::vector<std::string> &names, int jobs)
{
    std::vector<PairCell> cells;
    for (const auto &name : names) {
        const auto wl = workloads::makeWorkload(name);
        for (const auto &input : wl->inputs()) {
            PairCell c;
            c.workload = name;
            c.input = input;
            c.cls = wl->workloadClass();
            cells.push_back(std::move(c));
        }
    }
    parallelFor(cells.size(), jobs, [&](std::size_t i) {
        PairCell &c = cells[i];
        const auto wl = workloads::makeWorkload(c.workload);
        wl->prepare(c.input, scaleFor(*wl));
        c.pr = runPair(*wl, defaultConfig(scaleFor(*wl)));
    });
    return cells;
}

/**
 * Machine-readable mirror of one bench binary's printed tables.
 *
 * Construct one per binary, route every table through print(): the
 * table renders to stdout exactly as before AND is recorded. On save()
 * (called by the destructor if needed) the recorded tables are written
 * to BENCH_<name>.json — same cell strings as the printed output, so
 * the JSON always matches the text.
 *
 * Environment: TMU_BENCH_JSON=0 disables the file; TMU_BENCH_JSON_DIR
 * sets the output directory (default: the working directory).
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}
    ~BenchReport() { save(); }

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    /** Print @p t to stdout and record it for the JSON report. */
    void
    print(const TextTable &t)
    {
        t.print();
        tables_.push_back(t);
    }

    /** Attach a scalar result line (e.g. a geomean) to the report. */
    void
    note(const std::string &key, const std::string &value)
    {
        notes_.emplace_back(key, value);
    }

    /** Write BENCH_<name>.json. Idempotent. */
    bool
    save()
    {
        if (saved_)
            return true;
        saved_ = true;
        if (const char *e = std::getenv("TMU_BENCH_JSON");
            e != nullptr && std::string(e) == "0")
            return false;
        std::string dir = ".";
        if (const char *d = std::getenv("TMU_BENCH_JSON_DIR"))
            dir = d;

        stats::JsonWriter jw;
        jw.beginObject();
        jw.key("bench").value(name_);
        jw.key("notes").beginObject();
        for (const auto &[k, v] : notes_)
            jw.key(k).value(v);
        jw.endObject();
        jw.key("tables").beginArray();
        for (const TextTable &t : tables_) {
            jw.beginObject();
            jw.key("title").value(t.title());
            jw.key("header").beginArray();
            for (const std::string &h : t.headerCells())
                jw.value(h);
            jw.endArray();
            jw.key("rows").beginArray();
            for (const auto &r : t.rowCells()) {
                jw.beginArray();
                for (const std::string &c : r)
                    jw.value(c);
                jw.endArray();
            }
            jw.endArray();
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();

        const std::string path = dir + "/BENCH_" + name_ + ".json";
        if (!stats::saveTextFile(path, jw.str()))
            return false;
        std::printf("wrote %s\n", path.c_str());
        return true;
    }

  private:
    std::string name_;
    std::vector<TextTable> tables_;
    std::vector<std::pair<std::string, std::string>> notes_;
    bool saved_ = false;
};

/** Print the Table-5 parameter banner every bench leads with. */
inline void
printBanner(const char *title, const workloads::RunConfig &cfg)
{
    std::printf("### %s\n", title);
    std::printf("# %s\n", cfg.system.describe().c_str());
    std::printf("# TMU: %d lanes, %zu B/lane, %d outstanding, "
                "%zu B outQ chunks\n",
                cfg.tmu.lanes, cfg.tmu.perLaneBytes,
                cfg.tmu.maxOutstanding, cfg.tmu.chunkBytes);
    std::printf("# scale: matrices 1/%lld, tensors 1/%lld "
                "(TMU_SCALE_MAT / TMU_SCALE_TEN)\n\n",
                static_cast<long long>(matrixScale()),
                static_cast<long long>(tensorScale()));
}

} // namespace tmu::bench
