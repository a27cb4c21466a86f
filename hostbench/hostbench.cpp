/**
 * @file
 * Host-speed benchmark: how many simulated cycles the simulator turns
 * out per host second, end to end and per layer (README.md).
 *
 *   hostbench --workload NAME [--seconds S] [--seed N] [--trace 0|1]
 *             [--out DIR] [--commit SHA]
 *             [--scale-mat D] [--scale-ten D] [--cores N]
 *
 * One process runs one benchmark workload: a fixed set of registry
 * workloads x suite inputs, each in baseline and TMU mode, one
 * simulation at a time, in rounds until --seconds have passed. Every
 * run must verify and complete; the simulated cycles of every cell are
 * printed with a digest so a host-speed change can show them
 * unchanged.
 *
 * --trace 0 times Workload::prepare/run untraced, scales the host times
 * by a host-speed probe run between simulations, and reports the
 * end-to-end metrics. --trace 1 replays every cell through the layers'
 * public calls with a span around each (replay.hpp) and reports the
 * per-layer metrics, a self-time table and a Perfetto trace.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and the metrics (medians over rounds). Exit status 1 when any run
 * failed, 2 on a usage error.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/writers.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads/partition.hpp"
#include "workloads/registry.hpp"

namespace hostbench {
namespace {

using namespace tmu;
using workloads::Mode;
using workloads::PartitionKind;
using workloads::RunConfig;

constexpr Mode kModes[] = {Mode::Baseline, Mode::Tmu};

const char *
modeName(Mode m)
{
    return m == Mode::Baseline ? "baseline" : "tmu";
}

SpanMode
spanMode(Mode m)
{
    return m == Mode::Baseline ? SpanMode::Baseline : SpanMode::Tmu;
}

/** One benchmark workload: registry workloads on one machine. */
struct BenchWorkload
{
    const char *name;
    std::vector<std::string> kernels; //!< registry names
    std::vector<std::string> inputs;  //!< suite inputs of every kernel
    int cores;
    int meshW;
    int meshH;
    PartitionKind partition;
};

/**
 * Why these four: gather-8c loads the core/memory models and trace
 * generation; merge-8c the TMU engine's merge layers, callbacks and
 * outQ; gather-64c is gather-8c's kernel at 64 cores, so scheduler and
 * per-core costs show there and not on gather-8c; tensor-8c is the only
 * one through the COO/CSF tensor layer and MTTKRP's callback compute.
 *
 * Each takes the subset of suite inputs that keeps one round (every
 * cell, both modes) to 2-5 host seconds at the paper-figure scale,
 * so a 50-second run holds about ten rounds or more.
 */
const std::vector<BenchWorkload> &
benchWorkloads()
{
    static const std::vector<BenchWorkload> all = {
        {"gather-8c", {"SpMV", "PR"}, {"M2", "M6"}, 8, 4, 4,
         PartitionKind::Rows},
        {"merge-8c", {"SpKAdd", "SpMSpM", "TC"}, {"M2"}, 8, 4, 4,
         PartitionKind::Rows},
        {"gather-64c", {"SpMV"}, {"M6"}, 64, 8, 8,
         PartitionKind::NnzBalanced},
        {"tensor-8c", {"MTTKRP_MP", "MTTKRP_CP", "SpTC"}, {"T2"}, 8, 4, 4,
         PartitionKind::Rows},
    };
    return all;
}

struct Options
{
    std::string workload;
    double seconds = 50.0;
    std::uint64_t seed = 1;
    bool trace = false;
    std::string out = ".";
    std::string commit = "unknown";
    Index scaleMat = 128; //!< the paper-figure benches' defaults
    Index scaleTen = 64;
    int cores = 0; //!< 0 = the workload's own core count
};

/** One (registry workload, input) pair. */
struct Cell
{
    std::string kernel;
    std::string input;
    Index scale = 1;

    std::string label() const { return kernel + "/" + input; }
};

/** Host facts that make two result sets comparable. */
struct HostContext
{
    unsigned hardwareConcurrency = 0;
    double load1 = -1.0;
    std::string buildType;
    bool ndebug = false;
    std::string compiler;
    std::string commit;
};

HostContext
hostContext(const Options &o)
{
    HostContext h;
    h.hardwareConcurrency = std::thread::hardware_concurrency();
    double load[1];
    if (getloadavg(load, 1) == 1)
        h.load1 = load[0];
    h.buildType = TMU_BUILD_TYPE;
#ifdef NDEBUG
    h.ndebug = true;
#endif
    h.compiler = TMU_COMPILER;
    h.commit = o.commit;
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * CPU seconds the calling thread has used. A simulation runs on this one
 * thread, so CPU time leaves out the time a shared host spends running
 * something else (preemption, steal), which wall time would count.
 */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/**
 * Thread CPU seconds of the host-speed probe on a quiet host of the kind
 * the results log in README.md names. Host-time metrics are scaled to
 * this speed.
 */
constexpr double kProbeReferenceS = 0.020;

/**
 * Host-speed probe: a fixed sequence of random updates to a 1 MiB table
 * and binary-heap pushes and pops, the kind of work the simulator's
 * caches and event queues do. Returns the thread CPU seconds it took.
 * On a shared host it slows down with the simulator when other work
 * competes for the core and its caches, so the benchmark divides the
 * host's speed out of its times (README.md).
 */
double
probeSeconds()
{
    constexpr std::size_t kWords = std::size_t{1} << 18;
    static std::vector<std::uint32_t> table(kWords, 1);
    static std::vector<std::uint64_t> heap;
    heap.clear();
    const double c0 = threadCpuSeconds();
    std::uint64_t x = 12345;
    std::uint64_t acc = 0;
    for (int i = 0; i < 600000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::size_t idx = (x >> 40) & (kWords - 1);
        acc += table[idx];
        table[idx] = static_cast<std::uint32_t>(acc);
        if ((x >> 33) & 1) {
            heap.push_back(x ^ acc);
            std::push_heap(heap.begin(), heap.end(), std::greater<>());
        } else if (!heap.empty()) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<>());
            acc ^= heap.back();
            heap.pop_back();
        }
    }
    return threadCpuSeconds() - c0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Cell execution order of one round, permuted by the seed. */
std::vector<std::size_t>
roundOrder(std::size_t cells, std::uint64_t seed, int round)
{
    std::vector<std::size_t> order(cells);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(round));
    for (std::size_t i = cells; i > 1; --i)
        std::swap(order[i - 1], order[rng.next() % i]);
    return order;
}

/**
 * Simulated cycles per (cell, mode), filled by the first round and
 * checked against every later one: the simulator is deterministic, so
 * any difference is a failure.
 */
class CycleTable
{
  public:
    explicit CycleTable(std::size_t cells) : cycles_(cells * 2, 0) {}

    /** Record one run; false when it differs from an earlier round. */
    bool
    record(std::size_t cell, Mode m, Cycle cycles)
    {
        Cycle &slot = cycles_[cell * 2 + (m == Mode::Tmu ? 1 : 0)];
        if (slot == 0) {
            slot = cycles;
            return true;
        }
        return slot == cycles;
    }

    Cycle
    at(std::size_t cell, Mode m) const
    {
        return cycles_[cell * 2 + (m == Mode::Tmu ? 1 : 0)];
    }

  private:
    std::vector<Cycle> cycles_;
};

/** FNV-1a over "label mode cycles" lines, in cell order. */
std::string
cycleDigest(const std::vector<Cell> &cells, const CycleTable &t)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (const Mode m : kModes) {
            const std::string line = cells[i].label() + " " + modeName(m) +
                                     " " + std::to_string(t.at(i, m)) +
                                     "\n";
            for (const char ch : line) {
                h ^= static_cast<unsigned char>(ch);
                h *= 0x100000001b3ULL;
            }
        }
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Geomean of baseline/TMU cycles over the cells (the paper's ratio). */
double
tmuSpeedup(std::size_t cells, const CycleTable &t)
{
    double logSum = 0.0;
    for (std::size_t i = 0; i < cells; ++i) {
        logSum += std::log(static_cast<double>(t.at(i, Mode::Baseline)) /
                           static_cast<double>(t.at(i, Mode::Tmu)));
    }
    return std::exp(logSum / static_cast<double>(cells));
}

/** Named metric with its unit, in report order. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

using MetricList = std::vector<Metric>;

/** Outcome bookkeeping shared by both run kinds. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one run; reports and counts it failed if it did not
     *  verify, did not complete or changed its cycles. */
    void
    add(const Cell &cell, Mode m, const workloads::RunResult &res,
        CycleTable &table, std::size_t cellIdx)
    {
        ++attempted;
        const bool same = table.record(cellIdx, m, res.sim.cycles);
        if (res.verified && res.sim.completed() && same)
            return;
        ++failed;
        std::fprintf(stderr,
                     "FAILED %s %s: verified=%d termination=%d "
                     "cycles=%llu%s\n",
                     cell.label().c_str(), modeName(m), res.verified,
                     static_cast<int>(res.sim.termination),
                     static_cast<unsigned long long>(res.sim.cycles),
                     same ? "" : " (differs from an earlier round)");
    }
};

RunConfig
runConfig(const BenchWorkload &bw, const Options &o, const Cell &cell,
          Mode mode)
{
    RunConfig cfg = bench::defaultConfig(cell.scale);
    cfg.system.cores = o.cores > 0 ? o.cores : bw.cores;
    cfg.system.mem.meshW = bw.meshW;
    cfg.system.mem.meshH = bw.meshH;
    cfg.partition = bw.partition;
    cfg.mode = mode;
    return cfg;
}

std::vector<Cell>
makeCells(const BenchWorkload &bw, const Options &o)
{
    std::vector<Cell> cells;
    for (const std::string &k : bw.kernels) {
        const auto wl = workloads::makeWorkload(k);
        for (const std::string &in : wl->inputs()) {
            if (std::find(bw.inputs.begin(), bw.inputs.end(), in) ==
                bw.inputs.end())
                continue;
            Cell c;
            c.kernel = k;
            c.input = in;
            c.scale = in[0] == 'T' ? o.scaleTen : o.scaleMat;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

// --- untraced run: end-to-end metrics ----------------------------------

/**
 * One untraced round over every cell, in reference seconds: each
 * simulation is bracketed by probeSeconds() calls, and the host times
 * between two probes are scaled by kProbeReferenceS over their mean.
 */
struct E2eRound
{
    double wall = 0.0;  //!< setup, runs, verification, export: wall time
    double setup = 0.0; //!< Workload::prepare, thread CPU time
    double run[2] = {0.0, 0.0}; //!< Workload::run per mode, CPU time
    double cycles[2] = {0.0, 0.0};
    std::vector<double> probes; //!< every probe of the round, in order
};

MetricList
runUntraced(const BenchWorkload &bw, const Options &o,
            const std::vector<Cell> &cells, CycleTable &table,
            Tally &tally, int &rounds, double &probe)
{
    std::vector<E2eRound> rs;
    std::size_t exported = 0;
    probeSeconds(); // first touch of the probe's table
    const auto start = Clock::now();
    do {
        E2eRound r;
        r.probes.push_back(probeSeconds());
        for (const std::size_t i :
             roundOrder(cells.size(), o.seed, static_cast<int>(rs.size()))) {
            const Cell &cell = cells[i];
            const auto wl = workloads::makeWorkload(cell.kernel);
            for (const Mode m : kModes) {
                const int mi = m == Mode::Tmu ? 1 : 0;
                const RunConfig cfg = runConfig(bw, o, cell, m);
                const auto t0 = Clock::now();
                double setup = 0.0;
                double c = threadCpuSeconds();
                if (m == Mode::Baseline) {
                    wl->prepare(cell.input, cell.scale);
                    setup = threadCpuSeconds() - c;
                    c = threadCpuSeconds();
                }
                const workloads::RunResult res = wl->run(cfg);
                const double run = threadCpuSeconds() - c;
                tally.add(cell, m, res, table, i);
                exported += stats::renderStatsJson(res.stats).size();
                const double wall = secondsSince(t0);

                r.probes.push_back(probeSeconds());
                const double scale =
                    2.0 * kProbeReferenceS /
                    (r.probes[r.probes.size() - 2] + r.probes.back());
                r.wall += wall * scale;
                r.setup += setup * scale;
                r.run[mi] += run * scale;
                r.cycles[mi] += static_cast<double>(res.sim.cycles);
            }
        }
        std::printf("round %zu: wall %.3f s, setup %.4f s, %.0f cycles/s "
                    "(reference seconds); probe median %.4f s\n",
                    rs.size(), r.wall, r.setup,
                    (r.cycles[0] + r.cycles[1]) / (r.run[0] + r.run[1]),
                    median(r.probes));
        rs.push_back(std::move(r));
    } while (secondsSince(start) < o.seconds);
    rounds = static_cast<int>(rs.size());
    std::printf("rounds: %d in %.2f s (%zu B of stats JSON exported)\n",
                rounds, secondsSince(start), exported);

    // Medians over rounds; README.md explains the reference seconds.
    // Only wall_s is wall time.
    auto med = [&](auto fn) {
        std::vector<double> v;
        for (const E2eRound &r : rs)
            v.push_back(fn(r));
        return median(v);
    };
    probe = med([](const E2eRound &r) { return median(r.probes); });
    std::printf("host-speed probe: median %.4f s, reference %.4f s\n",
                probe, kProbeReferenceS);
    const double attempted = static_cast<double>(tally.attempted);
    return {
        {"sim_cycles_per_s", "cycles/s",
         med([](const E2eRound &r) {
             return (r.cycles[0] + r.cycles[1]) / (r.run[0] + r.run[1]);
         })},
        {"sim_cycles_per_s.baseline", "cycles/s",
         med([](const E2eRound &r) { return r.cycles[0] / r.run[0]; })},
        {"sim_cycles_per_s.tmu", "cycles/s",
         med([](const E2eRound &r) { return r.cycles[1] / r.run[1]; })},
        {"wall_s", "s", med([](const E2eRound &r) { return r.wall; })},
        {"setup_s", "s", med([](const E2eRound &r) { return r.setup; })},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"tmu_speedup", "x", tmuSpeedup(cells.size(), table)},
        {"verified_frac", "ratio",
         (attempted - static_cast<double>(tally.failed)) / attempted},
    };
}

// --- traced run: per-layer metrics -------------------------------------

/** Simulated-unit counts of one run, from its stats snapshot. */
struct Counts
{
    double cycles = 0, events = 0, wakeups = 0, idleSkipped = 0;
    double retired = 0, l1 = 0, l2 = 0, llcAccesses = 0, llcMisses = 0;
    double dramBytes = 0, mshrRejects = 0;
    double tmuElements = 0, tmuLineRequests = 0, tmuChunks = 0;
    double traceUops = 0;

    void
    add(const Counts &o)
    {
        cycles += o.cycles;
        events += o.events;
        wakeups += o.wakeups;
        idleSkipped += o.idleSkipped;
        retired += o.retired;
        l1 += o.l1;
        l2 += o.l2;
        llcAccesses += o.llcAccesses;
        llcMisses += o.llcMisses;
        dramBytes += o.dramBytes;
        mshrRejects += o.mshrRejects;
        tmuElements += o.tmuElements;
        tmuLineRequests += o.tmuLineRequests;
        tmuChunks += o.tmuChunks;
        traceUops += o.traceUops;
    }
};

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

Counts
countsOf(const ReplayRun &r)
{
    Counts c;
    for (const stats::SnapshotEntry &e : r.stats.entries) {
        const std::string &n = e.name;
        const double v = e.value();
        if (n == "sim.cycles")
            c.cycles = v;
        else if (n == "sim.scheduler.eventsDispatched")
            c.events = v;
        else if (n == "sim.scheduler.wakeups")
            c.wakeups = v;
        else if (n == "sim.scheduler.idleCyclesSkipped")
            c.idleSkipped = v;
        else if (n == "cores.retiredOps")
            c.retired = v;
        else if (n == "llc.accesses")
            c.llcAccesses = v;
        else if (n == "llc.misses")
            c.llcMisses = v;
        else if (n == "dram.readBytes" || n == "dram.writeBytes")
            c.dramBytes += v;
        else if (startsWith(n, "core") && endsWith(n, ".l1.accesses"))
            c.l1 += v;
        else if (startsWith(n, "core") && endsWith(n, ".l2.accesses"))
            c.l2 += v;
        else if (endsWith(n, ".mshrRejects"))
            c.mshrRejects += v;
        else if (startsWith(n, "tmu") && endsWith(n, ".elementsPushed"))
            c.tmuElements += v;
        else if (startsWith(n, "tmu") && endsWith(n, ".requestsIssued"))
            c.tmuLineRequests += v;
        else if (startsWith(n, "tmu") && endsWith(n, ".chunksSealed"))
            c.tmuChunks += v;
    }
    c.traceUops = static_cast<double>(r.traceUops);
    return c;
}

/** One traced round: its spans and the counts of its valid replays. */
struct TracedRound
{
    std::vector<Span> spans;
    std::vector<bool> validTrack; //!< per cell: replayed and faithful
    Counts counts[2];             //!< per mode, valid cells only
    double inputNnz = 0;
    int replayed = 0;
    int valid = 0;
    double wall = 0.0;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The per-layer metrics of one round. With @p only set, spans and
 * counts are restricted to that mode (set-up spans carry no mode).
 */
MetricList
layerMetrics(const TracedRound &r, SpanMode only)
{
    std::vector<Span> sp;
    for (const Span &s : r.spans) {
        if (!r.validTrack[static_cast<size_t>(s.track)])
            continue;
        if (only != SpanMode::None && s.mode != only)
            continue;
        sp.push_back(s);
    }
    Counts c;
    for (int m = 0; m < 2; ++m) {
        if (only == SpanMode::None || static_cast<int>(only) == m)
            c.add(r.counts[m]);
    }
    const double runB = spanSeconds(sp, "sim.run", SpanMode::Baseline);
    const double runT = spanSeconds(sp, "sim.run", SpanMode::Tmu);
    const double traceS = spanSeconds(sp, "plan.trace");
    double workloadsSelf = 0.0;
    for (const Span &s : sp) {
        if (layerOf(s.name) == "workloads")
            workloadsSelf += static_cast<double>(s.selfNs()) * 1e-9;
    }
    const double replayS = spanSeconds(sp, "workloads.prepare") +
                           spanSeconds(sp, "workloads.run.baseline") +
                           spanSeconds(sp, "workloads.run.tmu");
    const double refS = spanSeconds(sp, "reference.prepare") +
                        spanSeconds(sp, "reference.run.baseline") +
                        spanSeconds(sp, "reference.run.tmu");
    return {
        {"tensor.generate_s", "s", spanSeconds(sp, "tensor.generate")},
        {"tensor.convert_s", "s", spanSeconds(sp, "tensor.convert")},
        {"tensor.input_nnz", "count", r.inputNnz},
        {"kernels.ref_s", "s", spanSeconds(sp, "kernels.ref")},
        {"frontend.compile_s", "s", spanSeconds(sp, "frontend.compile")},
        {"frontend.compiles", "count",
         static_cast<double>(spanCount(sp, "frontend.compile"))},
        {"plan.lower_program_s", "s",
         spanSeconds(sp, "plan.lower_program")},
        {"plan.bind_s", "s",
         spanSeconds(sp, "plan.init_state") +
             spanSeconds(sp, "plan.bind_handlers")},
        {"plan.trace_s", "s", traceS},
        {"plan.trace_uops", "count", c.traceUops},
        {"plan.trace_uops_per_s", "1/s", ratio(c.traceUops, traceS)},
        {"sim.system_s", "s", spanSeconds(sp, "sim.system")},
        {"sim.run_s.baseline", "s", runB},
        {"sim.run_s.tmu", "s", runT},
        {"sim.cycles", "cycles", c.cycles},
        {"sim.events", "count", c.events},
        {"sim.events_per_cycle", "ratio", ratio(c.events, c.cycles)},
        {"sim.ns_per_event", "ns", ratio((runB + runT) * 1e9, c.events)},
        {"sim.wakeups", "count", c.wakeups},
        {"sim.idle_cycles_skipped", "count", c.idleSkipped},
        {"sim.retired_uops", "count", c.retired},
        {"mem.l1_accesses", "count", c.l1},
        {"mem.l2_accesses", "count", c.l2},
        {"mem.llc_accesses", "count", c.llcAccesses},
        {"mem.llc_misses", "count", c.llcMisses},
        {"mem.dram_bytes", "B", c.dramBytes},
        {"mem.mshr_rejects", "count", c.mshrRejects},
        {"tmu.elements", "count", c.tmuElements},
        {"tmu.line_requests", "count", c.tmuLineRequests},
        {"tmu.chunks_sealed", "count", c.tmuChunks},
        {"tmu.ns_per_element", "ns", ratio(runT * 1e9, c.tmuElements)},
        {"stats.snapshot_s", "s", spanSeconds(sp, "stats.snapshot")},
        {"stats.export_s", "s", spanSeconds(sp, "stats.export")},
        {"workloads.self_s", "s", workloadsSelf},
        {"trace_overhead_frac", "ratio", ratio(replayS - refS, refS)},
        {"replay.valid_frac", "ratio", ratio(r.valid, r.replayed)},
    };
}

MetricList
medianMetrics(const std::vector<TracedRound> &rs, SpanMode only)
{
    std::vector<MetricList> per;
    for (const TracedRound &r : rs)
        per.push_back(layerMetrics(r, only));
    MetricList out = per.front();
    for (std::size_t k = 0; k < out.size(); ++k) {
        std::vector<double> v;
        for (const MetricList &m : per)
            v.push_back(m[k].value);
        out[k].value = median(v);
    }
    return out;
}

/** The traced round loop; returns its rounds. */
std::vector<TracedRound>
runTraced(const BenchWorkload &bw, const Options &o,
          const std::vector<Cell> &cells, CycleTable &table, Tally &tally,
          Clock::time_point origin)
{
    std::vector<TracedRound> rs;
    SpanRecorder rec(origin);
    const auto start = Clock::now();
    do {
        TracedRound r;
        r.validTrack.assign(cells.size(), false);
        const auto t0 = Clock::now();
        for (const std::size_t i :
             roundOrder(cells.size(), o.seed, static_cast<int>(rs.size()))) {
            const Cell &cell = cells[i];
            const int track = static_cast<int>(i);

            // The untraced path: fidelity reference and overhead base.
            rec.setContext(track, SpanMode::None);
            const auto wl = workloads::makeWorkload(cell.kernel);
            rec.time("reference.prepare",
                     [&] { wl->prepare(cell.input, cell.scale); });
            workloads::RunResult ref[2];
            for (const Mode m : kModes) {
                const int mi = m == Mode::Tmu ? 1 : 0;
                const RunConfig cfg = runConfig(bw, o, cell, m);
                rec.setMode(spanMode(m));
                rec.begin(m == Mode::Baseline ? "reference.run.baseline"
                                              : "reference.run.tmu");
                ref[mi] = wl->run(cfg);
                rec.end();
                tally.add(cell, m, ref[mi], table, i);
            }

            rec.setMode(SpanMode::None);
            const auto replay = makeReplayCell(cell.kernel, cell.input);
            if (!replay)
                continue;
            ++r.replayed;
            rec.time("workloads.prepare",
                     [&] { replay->prepare(rec, cell.scale); });
            bool faithful = true;
            Counts counts[2];
            for (const Mode m : kModes) {
                const int mi = m == Mode::Tmu ? 1 : 0;
                rec.setMode(spanMode(m));
                const ReplayRun rr =
                    replay->run(rec, runConfig(bw, o, cell, m));
                rec.time("stats.export", [&] {
                    return stats::renderStatsJson(rr.stats).size();
                });
                counts[mi] = countsOf(rr);
                if (!rr.verified || !rr.sim.completed() ||
                    rr.sim.cycles != ref[mi].sim.cycles) {
                    faithful = false;
                    std::fprintf(stderr,
                                 "REPLAY INVALID %s %s: verified=%d "
                                 "cycles=%llu, untraced cycles=%llu\n",
                                 cell.label().c_str(), modeName(m),
                                 rr.verified,
                                 static_cast<unsigned long long>(
                                     rr.sim.cycles),
                                 static_cast<unsigned long long>(
                                     ref[mi].sim.cycles));
                }
            }
            rec.setMode(SpanMode::None);
            if (!faithful)
                continue;
            ++r.valid;
            r.validTrack[i] = true;
            r.inputNnz += static_cast<double>(replay->inputNnz());
            r.counts[0].add(counts[0]);
            r.counts[1].add(counts[1]);
        }
        r.wall = secondsSince(t0);
        r.spans = rec.spans();
        rec.clear();
        rs.push_back(std::move(r));
    } while (secondsSince(start) < o.seconds);
    return rs;
}

// --- output -------------------------------------------------------------

void
printMetrics(const MetricList &ms)
{
    for (const Metric &m : ms) {
        std::printf("%-28s %18.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

void
writeMetricsObject(stats::JsonWriter &jw, const MetricList &ms)
{
    jw.beginObject();
    for (const Metric &m : ms) {
        jw.key(m.name).beginObject();
        jw.key("value").value(m.value);
        jw.key("unit").value(m.unit);
        jw.endObject();
    }
    jw.endObject();
}

/** The flat per-layer self-time table over every traced round. */
struct LayerTable
{
    std::map<std::string, double> self;
    double uncovered = 0.0;
    double wall = 0.0;
};

LayerTable
layerTable(const std::vector<TracedRound> &rs)
{
    LayerTable t;
    for (const TracedRound &r : rs) {
        for (const auto &[layer, s] : layerSelfSeconds(r.spans))
            t.self[layer] += s;
        t.uncovered += r.wall - topLevelSeconds(r.spans);
        t.wall += r.wall;
    }
    return t;
}

std::string
renderLayerTable(const LayerTable &t)
{
    std::string out = "layer            self_s      share\n";
    char buf[128];
    auto row = [&](const std::string &name, double s) {
        std::snprintf(buf, sizeof buf, "%-14s %10.4f %9.2f%%\n",
                      name.c_str(), s, 100.0 * ratio(s, t.wall));
        out += buf;
    };
    for (const auto &[layer, s] : t.self)
        row(layer, s);
    row("(uncovered)", t.uncovered);
    row("total", t.wall);
    return out;
}

void
writeHostContext(stats::JsonWriter &jw, const HostContext &h,
                 const Options &o)
{
    jw.key("host").beginObject();
    jw.key("hardware_concurrency")
        .value(static_cast<std::uint64_t>(h.hardwareConcurrency));
    jw.key("load1_at_start").value(h.load1);
    jw.key("build_type").value(h.buildType);
    jw.key("ndebug").value(h.ndebug);
    jw.key("compiler").value(h.compiler);
    jw.key("commit").value(h.commit);
    jw.key("scale_mat").value(static_cast<std::int64_t>(o.scaleMat));
    jw.key("scale_ten").value(static_cast<std::int64_t>(o.scaleTen));
    jw.key("input_seed").value("fixed by the input suite");
    jw.endObject();
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload NAME [--seconds S] "
                 "[--seed N] [--trace 0|1] [--out DIR] [--commit SHA]\n"
                 "                 [--scale-mat D] [--scale-ten D] "
                 "[--cores N]\n"
                 "workloads:",
                 msg);
    for (const BenchWorkload &w : benchWorkloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        auto num = [&](double lo) {
            const double d = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(d >= lo))
                usage(("bad value for " + a + ": " + v).c_str());
            return d;
        };
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seconds")
            o.seconds = num(0.0);
        else if (a == "--seed")
            o.seed = static_cast<std::uint64_t>(num(0.0));
        else if (a == "--trace")
            o.trace = num(0.0) != 0.0;
        else if (a == "--out")
            o.out = v;
        else if (a == "--commit")
            o.commit = v;
        else if (a == "--scale-mat")
            o.scaleMat = static_cast<Index>(num(1.0));
        else if (a == "--scale-ten")
            o.scaleTen = static_cast<Index>(num(1.0));
        else if (a == "--cores")
            o.cores = static_cast<int>(num(1.0));
        else
            usage(("unknown option " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

int
benchMain(int argc, char **argv)
{
    const auto origin = Clock::now();
    const Options o = parseArgs(argc, argv);
    const BenchWorkload *bw = nullptr;
    for (const BenchWorkload &w : benchWorkloads()) {
        if (o.workload == w.name)
            bw = &w;
    }
    if (bw == nullptr)
        usage(("unknown workload " + o.workload).c_str());
    const std::vector<Cell> cells = makeCells(*bw, o);
    if (cells.empty())
        usage("no inputs selected");
    for (const Mode m : kModes) {
        if (const auto ok = runConfig(*bw, o, cells.front(), m)
                                .system.validate();
            !ok) {
            usage(ok.error().message().c_str());
        }
    }
    const HostContext host = hostContext(o);

    std::printf("# hostbench %s (%s run): %d cores, %dx%d mesh, "
                "partition %s, %zu cells x 2 modes\n",
                bw->name, o.trace ? "traced" : "untraced",
                o.cores > 0 ? o.cores : bw->cores, bw->meshW, bw->meshH,
                workloads::partitionKindName(bw->partition), cells.size());
    std::printf("# host: hardware_concurrency=%u load1=%.2f build=%s "
                "NDEBUG=%d compiler=\"%s\" commit=%s\n",
                host.hardwareConcurrency, host.load1, host.buildType.c_str(),
                host.ndebug, host.compiler.c_str(), host.commit.c_str());
    std::printf("# scale: matrices 1/%lld, tensors 1/%lld; inputs are "
                "fixed by the suite, --seed %llu only permutes cell "
                "order\n",
                static_cast<long long>(o.scaleMat),
                static_cast<long long>(o.scaleTen),
                static_cast<unsigned long long>(o.seed));

    CycleTable table(cells.size());
    Tally tally;
    MetricList metrics;
    std::vector<TracedRound> traced;
    int rounds = 0;
    double probe = 0.0; // median probeSeconds() of an untraced run
    if (o.trace) {
        traced = runTraced(*bw, o, cells, table, tally, origin);
        rounds = static_cast<int>(traced.size());
        metrics = medianMetrics(traced, SpanMode::None);
    } else {
        metrics = runUntraced(*bw, o, cells, table, tally, rounds, probe);
    }

    std::printf("\nsimulated cycles per cell:\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (const Mode m : kModes) {
            std::printf("  %-16s %-8s %14llu\n", cells[i].label().c_str(),
                        modeName(m),
                        static_cast<unsigned long long>(table.at(i, m)));
        }
    }
    const std::string digest = cycleDigest(cells, table);
    std::printf("cycles digest: %s\n\n", digest.c_str());

    stats::JsonWriter detail;
    detail.beginObject();
    detail.key("workload").value(bw->name);
    detail.key("trace").value(o.trace);
    detail.key("seed").value(static_cast<std::uint64_t>(o.seed));
    detail.key("rounds").value(rounds);
    writeHostContext(detail, host, o);
    if (!o.trace) {
        detail.key("probe_s").value(probe);
        detail.key("probe_reference_s").value(kProbeReferenceS);
    }
    detail.key("cycles").beginObject();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (const Mode m : kModes) {
            detail.key(cells[i].label() + "/" + modeName(m))
                .value(static_cast<std::uint64_t>(table.at(i, m)));
        }
    }
    detail.endObject();
    detail.key("cycles_digest").value(digest);
    detail.key("metrics");
    writeMetricsObject(detail, metrics);

    std::error_code ec;
    std::filesystem::create_directories(o.out, ec);
    const std::string stem =
        o.out + "/" + bw->name + (o.trace ? ".traced" : "");
    printMetrics(metrics);
    if (o.trace) {
        std::printf("\nby mode (setup spans carry no mode):\n");
        for (const Mode m : kModes) {
            const MetricList mm = medianMetrics(traced, spanMode(m));
            detail.key(std::string("by_mode.") + modeName(m));
            writeMetricsObject(detail, mm);
            std::printf("[%s]\n", modeName(m));
            printMetrics(mm);
        }
        const LayerTable lt = layerTable(traced);
        const std::string layers = renderLayerTable(lt);
        std::printf("\nself time per layer over %d traced rounds:\n%s",
                    rounds, layers.c_str());
        detail.key("layer_self_s").beginObject();
        for (const auto &[layer, s] : lt.self)
            detail.key(layer).value(s);
        detail.endObject();
        detail.key("uncovered_s").value(lt.uncovered);
        detail.key("traced_wall_s").value(lt.wall);
        stats::saveTextFile(stem + ".layers.txt", layers);
        std::vector<std::string> tracks;
        for (const Cell &c : cells)
            tracks.push_back(c.label());
        saveSpanTrace(stem + ".trace.json",
                      std::string("hostbench ") + bw->name + " round 0",
                      traced.front().spans, tracks);
    }
    detail.endObject();
    stats::saveTextFile(stem + ".json", detail.str());

    stats::JsonWriter jw;
    jw.beginObject();
    jw.key("correct").value(tally.failed == 0);
    jw.key("attempted").value(tally.attempted);
    jw.key("failed").value(tally.failed);
    jw.key("metrics");
    writeMetricsObject(jw, metrics);
    jw.endObject();
    std::printf("%s\n", jw.str().c_str());
    std::fflush(stdout);
    return tally.failed == 0 ? 0 : 1;
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    return hostbench::benchMain(argc, argv);
}
