/**
 * @file
 * Command-line driver: run evaluated workloads/inputs through either
 * execution path with configurable knobs and print the full result.
 *
 *   tmu_run [options]
 *     --workload NAMES  comma-separated list of registered
 *                       workloads (see --list)          (default SpMV)
 *     --input ID        M1..M6 / T1..T4                 (default first)
 *     --mode M          baseline|tmu|both               (default both)
 *     --scale N         input scale divisor             (default 128)
 *     --cores N         simulated cores                 (default 8)
 *     --mesh WxH        NoC mesh geometry               (default 4x4;
 *                       rectangular meshes allowed, see docs/SCALING.md)
 *     --llc-slices N    shared LLC slice count          (default 8)
 *     --mem-channels N  HBM channel count               (default preset's)
 *     --partition S     work distribution over the cores:
 *                       rows|nnz|tiles2d                (default rows)
 *     --shard i/N       run only the i-th of N deterministic sweep
 *                       shards (stable task-name hash split); merge
 *                       shard outputs with tools/tmu_merge.py into
 *                       byte-identical unsharded files
 *     --lanes N         TMU program lanes               (default 8)
 *     --sve BITS        vector width 128|256|512        (default 512)
 *     --preset NAME     system preset (neoverse-n1|a64fx|graviton3)
 *     --storage BYTES   TMU per-lane storage            (default 2048)
 *     --jobs N          run a multi-workload sweep on N host threads
 *                       (default 1; 0 = one per hardware thread;
 *                       output is byte-identical for any N — see
 *                       docs/PARALLEL_SWEEPS.md)
 *     --imp             enable the IMP prefetcher comparator
 *     --tlb             model address translation
 *     --shrink-caches   scale the cache hierarchy with the input
 *     --watchdog-cycles N  forward-progress watchdog window
 *                          (0 disables; default 1000000)
 *     --deadline-ms N   per-run host wall-clock budget (0 = off);
 *                       a trip ends the run with termination
 *                       deadline-exceeded
 *     --cycle-budget N  per-run simulated-cycle budget (0 = off);
 *                       termination cycle-budget-exceeded
 *     --mem-budget-mb N per-run host resident-set budget (0 = off);
 *                       termination mem-budget-exceeded
 *     --journal P       append one JSONL outcome record per finished
 *                       task to P (crash-safe: flushed per record);
 *                       refuses an existing non-empty P unless
 *                       --resume is also given
 *     --resume P        replay journal P, skip its completed tasks,
 *                       re-run only the rest, and keep appending to P.
 *                       The resumed sweep's --stats-json/--stats-csv
 *                       are byte-identical to an uninterrupted run
 *     --fault-spec S    enable timing-only fault injection, e.g.
 *                       "mem-lat=0.01:200,outq-stall=0.02:32"
 *     --fault-seed N    fault injection seed             (default 1)
 *     --stats-json P    write the full stat registry as JSON to P
 *     --stats-csv P     write the full stat registry as CSV to P
 *     --telemetry-json P  write the interval telemetry time-series
 *                         (attribution buckets, outQ occupancy, DRAM
 *                         traffic, sampled every --telemetry-interval
 *                         cycles) as JSON to P
 *     --telemetry-csv P   same series as long-format CSV
 *     --telemetry-interval N  telemetry sample period (default 1024)
 *     --trace-out P     write a Chrome trace_event / Perfetto timeline
 *                       (per-core stall phases, TMU chunk spans, outQ
 *                       occupancy counters; with telemetry enabled,
 *                       also its counter tracks) to P; forces --jobs 1
 *     --quiet           suppress the live sweep progress line
 *     --dump-stats      print the gem5-style plain-text report(s)
 *     --plan-dump W     compile the einsum registered for workload W
 *                       through the frontend (docs/FRONTEND.md),
 *                       print the PlanSpec and its
 *                       TmuProgram::summary(), exit (2 if W has none)
 *     --einsum "E"      same, for an arbitrary annotated expression
 *                       compiled against synthetic demo operands
 *     --list            list every registered workload and exit
 *
 * Numeric options take the whole token as a decimal integer in the
 * option's range (no sign where only non-negative values make sense).
 *
 * Long sweeps report live progress on stderr — completed/total tasks,
 * elapsed time and ETA — refreshed as tasks finish; automatically
 * disabled when stderr is not a TTY or --quiet is given.
 *
 * Robustness contract: an unknown workload name, an input id the
 * workload does not accept, or an exception thrown by one task never
 * kills a multi-workload sweep. Every workload reports a status in the
 * JSON export — "ok", "error" (never ran), "failed" or "interrupted" —
 * and the exit code summarizes the sweep:
 *
 *   0  every workload ran and verified
 *   2  bad arguments or a configuration validate() rejects (usage,
 *      bad number, bad spec, bad journal); nothing is prepared
 *   3  partial failure: some workloads ok, some not
 *   4  every workload failed
 *   5  interrupted (SIGINT/SIGTERM): in-flight tasks drained, journal
 *      flushed, partial exports written
 *
 * Sweep structure: every task shares one RunConfig, validated before
 * anything is prepared. Workloads are *prepared* serially on the main
 * thread in command-line order (input generation prints progress as it
 * goes), then *run* once each on a SweepRunner pool. A task is "ok"
 * when none of its runs threw and every run completed and verified;
 * otherwise it is "failed". Each task owns its Workload, System and
 * FaultInjector, prints into a private buffer, and the buffers are
 * flushed in command-line order — so stdout, JSON and CSV are
 * byte-identical for any --jobs value.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/log.hpp"
#include "common/table.hpp"
#include "plan/frontend/frontend.hpp"
#include "common/tracewriter.hpp"
#include "common/writers.hpp"
#include "sim/fault.hpp"
#include "sim/statsdump.hpp"
#include "sim/journal.hpp"
#include "sim/sweep.hpp"
#include "sim/telemetry.hpp"
#include "sim/watchdog.hpp"
#include "workloads/registry.hpp"

using namespace tmu;
using namespace tmu::workloads;

namespace {

/** Exit-code taxonomy (see the header comment). */
enum ExitCode : int {
    kExitOk = 0,
    kExitBadArgs = 2,
    kExitPartialFailure = 3,
    kExitAllFailed = 4,
    kExitInterrupted = 5,
};

/**
 * Cooperative stop flag, set by SIGINT/SIGTERM. First signal starts a
 * graceful drain (no new task starts; journal and exports still
 * flush); a second signal gives up immediately.
 */
volatile std::sig_atomic_t gStop = 0;

extern "C" void
onStopSignal(int sig)
{
    if (gStop)
        _exit(128 + sig);
    gStop = 1;
}

void
installStopHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

void
appendResult(std::string &out, const std::string &path,
             const RunResult &r)
{
    TextTable t(path);
    t.header({"cycles", "commit%", "frontend%", "backend%", "ld2use",
              "GB/s", "GFLOP/s", "mispredicts", "verified"});
    t.row({std::to_string(r.sim.cycles),
           TextTable::num(100.0 * r.sim.commitFrac(), 1),
           TextTable::num(100.0 * r.sim.frontendFrac(), 1),
           TextTable::num(100.0 * r.sim.backendFrac(), 1),
           TextTable::num(r.sim.total.avgLoadToUse(), 1),
           TextTable::num(r.sim.achievedGBs, 1),
           TextTable::num(r.sim.gflops, 2),
           std::to_string(r.sim.total.mispredicts),
           r.verified ? "yes" : "NO"});
    out += t.render();
    if (!r.mismatch.empty())
        out += detail::format("mismatch: %s\n", r.mismatch.c_str());
    if (!r.sim.completed()) {
        out += detail::format("termination: %s\n",
                              sim::terminationName(r.sim.termination));
    }
    if (r.rwRatio > 0.0) {
        out += detail::format(
            "outQ read-to-write ratio: %.2f, %llu TMU line "
            "requests, %llu elements\n",
            r.rwRatio, static_cast<unsigned long long>(r.tmuRequests),
            static_cast<unsigned long long>(r.tmuElements));
    }
    out += "\n";
}

/** One workload's outcome in a sweep. */
struct WorkloadOutcome
{
    std::string name;
    std::string input;
    std::string error; //!< empty unless the workload never ran
    /** "ok", "error", "failed" or "interrupted". */
    std::string status;
    bool verified = false;
    std::vector<std::pair<std::string, RunResult>> runs;
    /** Per-run interval telemetry (only with --telemetry-json/csv). */
    std::vector<
        std::pair<std::string, std::unique_ptr<sim::TelemetrySampler>>>
        telemetry;
};

/**
 * One sweep task: a prepared workload plus everything its run needs,
 * owned privately so tasks can execute on any pool thread. `output`
 * collects the run's report text; the main thread flushes the buffers
 * in task order after the pool drains.
 */
struct SweepTask
{
    WorkloadOutcome outcome;
    std::unique_ptr<Workload> wl; //!< null when not (re-)running
    /**
     * Position in the *full* command-line task list, independent of
     * any --shard filtering — journal records carry this index so
     * shard journals merge back into the unsharded record stream.
     */
    std::size_t globalIndex = 0;
    int tracePidBase = 0; //!< assigned serially: stable for any jobs
    bool fromJournal = false; //!< replayed, not executed, this run
    std::string output;
};

/** Reverse of sim::terminationName (journal replay). */
sim::TerminationReason
terminationFromName(const std::string &name)
{
    for (int i = 0;; ++i) {
        const auto r = static_cast<sim::TerminationReason>(i);
        const char *n = sim::terminationName(r);
        if (name == n)
            return r;
        if (std::strcmp(n, "unknown") == 0)
            return sim::TerminationReason::Completed;
    }
}

/**
 * One JSON document covering every requested workload:
 * {"meta": {...},
 *  "workloads": {"SpMV": {"status": "ok", "verified": true,
 *                         "runs": {"baseline": {...}, "tmu": {...}}},
 *                "Bogus": {"status": "error", "error": "..."}}}
 */
std::string
exportJson(const stats::MetaList &meta,
           const std::vector<WorkloadOutcome> &outcomes)
{
    stats::JsonWriter jw;
    jw.beginObject();
    jw.key("meta").beginObject();
    for (const auto &[k, v] : meta)
        jw.key(k).value(v);
    jw.endObject();
    jw.key("workloads").beginObject();
    for (const auto &wo : outcomes) {
        jw.key(wo.name).beginObject();
        if (!wo.error.empty()) {
            jw.key("status").value("error");
            jw.key("error").value(wo.error);
            jw.endObject();
            continue;
        }
        jw.key("status").value(wo.status.empty() ? "ok" : wo.status);
        jw.key("input").value(wo.input);
        jw.key("verified").value(wo.verified);
        jw.key("runs").beginObject();
        for (const auto &[name, r] : wo.runs) {
            jw.key(name).beginObject();
            jw.key("termination")
                .value(sim::terminationName(r.sim.termination));
            jw.key("stats").beginObject();
            stats::writeSnapshotObject(jw, r.stats);
            jw.endObject();
            jw.key("desc").beginObject();
            for (const auto &e : r.stats.entries)
                jw.key(e.name).value(e.desc);
            jw.endObject();
            jw.endObject();
        }
        jw.endObject();
        jw.endObject();
    }
    jw.endObject();
    jw.endObject();
    return jw.str();
}

/** CSV rows: workload,run,name,value,description. */
std::string
exportCsv(const std::vector<WorkloadOutcome> &outcomes)
{
    stats::CsvWriter csv(
        {"workload", "run", "name", "value", "description"});
    for (const auto &wo : outcomes) {
        for (const auto &[name, r] : wo.runs) {
            for (const auto &e : r.stats.entries) {
                const std::string value =
                    e.kind == stats::StatKind::U64
                        ? std::to_string(e.u)
                        : stats::JsonWriter::number(e.f);
                csv.row({wo.name, name, e.name, value, e.desc});
            }
        }
    }
    return csv.str();
}

/**
 * One JSON document with every run's telemetry time-series:
 * {"meta": {...},
 *  "workloads": {"SpMV": {"runs": {"baseline": {
 *      "interval": 1024, "cycle": [...],
 *      "columns": {"cores.attr.retiring":
 *                      {"unit": "cycles", "values": [...]}, ...}}}}}}
 */
std::string
exportTelemetryJson(const stats::MetaList &meta,
                    const std::vector<WorkloadOutcome> &outcomes)
{
    stats::JsonWriter jw;
    jw.beginObject();
    jw.key("meta").beginObject();
    for (const auto &[k, v] : meta)
        jw.key(k).value(v);
    jw.endObject();
    jw.key("workloads").beginObject();
    for (const auto &wo : outcomes) {
        if (wo.telemetry.empty())
            continue;
        jw.key(wo.name).beginObject();
        jw.key("runs").beginObject();
        for (const auto &[run, t] : wo.telemetry) {
            jw.key(run).beginObject();
            jw.key("interval").value(
                static_cast<std::uint64_t>(t->interval()));
            jw.key("cycle").beginArray();
            for (const Cycle c : t->cycles())
                jw.value(static_cast<std::uint64_t>(c));
            jw.endArray();
            jw.key("columns").beginObject();
            for (const auto &col : t->columns()) {
                jw.key(col.name).beginObject();
                jw.key("unit").value(col.unit);
                jw.key("values").beginArray();
                for (const double v : col.values)
                    jw.value(v);
                jw.endArray();
                jw.endObject();
            }
            jw.endObject();
            jw.endObject();
        }
        jw.endObject();
        jw.endObject();
    }
    jw.endObject();
    jw.endObject();
    return jw.str();
}

/** Long-format CSV: workload,run,cycle,column,unit,value. */
std::string
exportTelemetryCsv(const std::vector<WorkloadOutcome> &outcomes)
{
    stats::CsvWriter csv(
        {"workload", "run", "cycle", "column", "unit", "value"});
    for (const auto &wo : outcomes) {
        for (const auto &[run, t] : wo.telemetry) {
            for (std::size_t i = 0; i < t->rows(); ++i) {
                for (const auto &col : t->columns()) {
                    csv.row({wo.name, run,
                             std::to_string(t->cycles()[i]), col.name,
                             col.unit,
                             stats::JsonWriter::number(col.values[i])});
                }
            }
        }
    }
    return csv.str();
}

/** Deterministic per-workload fault stream: FNV-1a of the name. */
std::uint64_t
mixSeed(std::uint64_t seed, const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
    for (const char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s [--workload N1,N2,...] "
                         "[--input ID] "
                         "[--mode baseline|tmu|both] [--scale N] "
                         "[--cores N] [--mesh WxH] [--llc-slices N] "
                         "[--mem-channels N] [--partition S] "
                         "[--shard i/N] "
                         "[--lanes N] [--sve BITS] "
                         "[--preset NAME] [--storage BYTES] "
                         "[--jobs N] [--imp] "
                         "[--tlb] [--shrink-caches] "
                         "[--watchdog-cycles N] [--deadline-ms N] "
                         "[--cycle-budget N] [--mem-budget-mb N] "
                         "[--journal P] [--resume P] "
                         "[--fault-spec S] "
                         "[--fault-seed N] [--stats-json P] "
                         "[--stats-csv P] [--telemetry-json P] "
                         "[--telemetry-csv P] "
                         "[--telemetry-interval N] [--trace-out P] "
                         "[--quiet] [--dump-stats] [--plan-dump W] "
                         "[--einsum E] [--list]\n",
                 argv0);
    std::exit(kExitBadArgs);
}

/**
 * The value of numeric option @p flag: all of @p text as a decimal
 * integer in [lo, hi]. Anything else (empty, trailing junk, a sign on
 * an unsigned option, out of range) exits 2 with a diagnostic.
 */
template <typename T>
T
intArg(const char *flag, const std::string &text, T lo, T hi)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
        std::fprintf(stderr,
                     "tmu_run: %s wants an integer in [%s, %s], got "
                     "'%s'\n",
                     flag, std::to_string(lo).c_str(),
                     std::to_string(hi).c_str(), text.c_str());
        std::exit(kExitBadArgs);
    }
    return v;
}

/** Split "a,b,c" into its non-empty fields. */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** --plan-dump / --einsum: print the compiled plan, set the exit code. */
int
dumpPlan(const std::string &planDump, const std::string &einsumExpr,
         int lanes)
{
    std::string expr = einsumExpr;
    plan::frontend::CompileOptions opts;
    opts.lanes = lanes;
    if (!planDump.empty()) {
        const auto plan = workloadEinsum(planDump);
        if (!plan) {
            std::fprintf(stderr, "tmu_run: %s\n",
                         plan.error().str().c_str());
            return kExitBadArgs;
        }
        if (plan->einsum == nullptr) {
            std::fprintf(stderr,
                         "tmu_run: workload '%s' has no einsum plan\n",
                         planDump.c_str());
            return kExitBadArgs;
        }
        expr = plan->einsum;
        opts.variant = plan->variant;
        std::printf("# %s\n", planDump.c_str());
    }
    auto text = plan::frontend::dumpEinsum(expr, opts);
    if (!text) {
        std::fprintf(stderr, "tmu_run: %s\n",
                     text.error().str().c_str());
        return kExitBadArgs;
    }
    std::fputs(text->c_str(), stdout);
    return kExitOk;
}

bool
fileNonEmpty(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    const int c = std::fgetc(f);
    std::fclose(f);
    return c != EOF;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadArg = "SpMV";
    std::string input;
    std::string mode = "both";
    Index scale = 128;
    int cores = 8;
    std::string meshSpec;
    int llcSlices = 0;   // 0: keep the preset's slice count
    int memChannels = 0; // 0: keep the preset's channel count
    std::string partitionName = "rows";
    std::string shardSpec;
    int lanes = 8;
    int sve = 512;
    std::size_t storage = 2048;
    int jobs = 1;
    bool imp = false, tlb = false, shrink = false;
    std::string preset;
    std::string statsJson, statsCsv, traceOut;
    std::string telemetryJson, telemetryCsv;
    Cycle telemetryInterval = 1024;
    std::string faultSpecText;
    std::uint64_t faultSeed = 1;
    Cycle watchdogCycles = sim::SystemConfig{}.watchdogCycles;
    std::uint64_t deadlineMs = 0;
    Cycle cycleBudget = 0;
    std::uint64_t memBudgetMb = 0;
    std::string journalPath, resumePath;
    std::string planDump, einsumExpr;
    bool dumpText = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        // Valued flags accept both `--flag V` and `--flag=V`.
        auto strFlag = [&](const char *flag, std::string &dst) {
            const std::string eq = std::string(flag) + "=";
            if (arg == flag) {
                dst = next();
                return true;
            }
            if (arg.rfind(eq, 0) == 0) {
                dst = arg.substr(eq.size());
                return true;
            }
            return false;
        };
        auto intFlag = [&](const char *flag, auto &dst, auto lo,
                           auto hi) {
            using T = std::remove_reference_t<decltype(dst)>;
            std::string text;
            if (!strFlag(flag, text))
                return false;
            dst = intArg<T>(flag, text, lo, hi);
            return true;
        };
        constexpr auto kIntMax = std::numeric_limits<int>::max();
        constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
        if (strFlag("--stats-json", statsJson) ||
            strFlag("--stats-csv", statsCsv) ||
            strFlag("--telemetry-json", telemetryJson) ||
            strFlag("--telemetry-csv", telemetryCsv) ||
            strFlag("--trace-out", traceOut) ||
            strFlag("--workload", workloadArg) ||
            strFlag("--input", input) ||
            strFlag("--mode", mode) ||
            strFlag("--preset", preset) ||
            strFlag("--journal", journalPath) ||
            strFlag("--resume", resumePath) ||
            strFlag("--plan-dump", planDump) ||
            strFlag("--einsum", einsumExpr) ||
            strFlag("--mesh", meshSpec) ||
            strFlag("--partition", partitionName) ||
            strFlag("--shard", shardSpec) ||
            strFlag("--fault-spec", faultSpecText) ||
            intFlag("--scale", scale, Index{1},
                    std::numeric_limits<Index>::max()) ||
            intFlag("--cores", cores, 1, kIntMax) ||
            intFlag("--llc-slices", llcSlices, 1, kIntMax) ||
            intFlag("--mem-channels", memChannels, 1, kIntMax) ||
            intFlag("--lanes", lanes, 1, engine::kMaxLanes) ||
            intFlag("--sve", sve, 1, kIntMax) ||
            intFlag("--storage", storage, engine::kMinPerLaneBytes,
                    std::numeric_limits<std::size_t>::max()) ||
            intFlag("--jobs", jobs, 0, kIntMax) ||
            intFlag("--fault-seed", faultSeed, 0, kU64Max) ||
            intFlag("--watchdog-cycles", watchdogCycles, 0, kU64Max) ||
            intFlag("--deadline-ms", deadlineMs, 0, kU64Max) ||
            intFlag("--cycle-budget", cycleBudget, 0, kU64Max) ||
            intFlag("--mem-budget-mb", memBudgetMb, 0, kU64Max >> 20) ||
            intFlag("--telemetry-interval", telemetryInterval, 0,
                    kU64Max))
            continue;
        if (arg == "--quiet")
            quiet = true;
        else if (arg == "--dump-stats")
            dumpText = true;
        else if (arg == "--imp")
            imp = true;
        else if (arg == "--tlb")
            tlb = true;
        else if (arg == "--shrink-caches")
            shrink = true;
        else if (arg == "--list") {
            for (const auto &name : registeredWorkloads())
                std::printf("%s\n", name.c_str());
            return kExitOk;
        } else {
            usage(argv[0]);
        }
    }

    if (telemetryInterval == 0)
        telemetryInterval = 1;
    if (!planDump.empty() && !einsumExpr.empty()) {
        std::fprintf(stderr, "tmu_run: --plan-dump and --einsum are "
                             "mutually exclusive\n");
        return kExitBadArgs;
    }

    // A bad fault spec or preset is a command-line error, not a
    // per-workload one: nothing would run the way the user asked.
    sim::FaultSpec faultSpec;
    if (!faultSpecText.empty()) {
        auto spec = sim::FaultSpec::parse(faultSpecText);
        if (!spec) {
            std::fprintf(stderr, "tmu_run: %s\n",
                         spec.error().str().c_str());
            return kExitBadArgs;
        }
        faultSpec = *spec;
    }

    sim::SystemConfig sysCfg;
    if (!preset.empty()) {
        auto p = sim::SystemConfig::preset(preset);
        if (!p) {
            std::fprintf(stderr, "tmu_run: %s\n",
                         p.error().str().c_str());
            return kExitBadArgs;
        }
        sysCfg = *p;
    }
    if (!meshSpec.empty()) {
        auto mesh = sim::parseMeshSpec(meshSpec);
        if (!mesh) {
            std::fprintf(stderr, "tmu_run: %s\n",
                         mesh.error().str().c_str());
            return kExitBadArgs;
        }
        sysCfg.mem.meshW = mesh->first;
        sysCfg.mem.meshH = mesh->second;
    }
    if (llcSlices > 0)
        sysCfg.mem.llcSlices = llcSlices;
    if (memChannels > 0)
        sysCfg.mem.memChannels = memChannels;
    auto partitionE = parsePartitionKind(partitionName);
    if (!partitionE) {
        std::fprintf(stderr, "tmu_run: %s\n",
                     partitionE.error().str().c_str());
        return kExitBadArgs;
    }
    const PartitionKind partitionKind = *partitionE;

    // The one RunConfig every task shares. It is validated before
    // anything is prepared: a configuration validate() rejects is a
    // command-line error, not a per-workload one.
    RunConfig runCfg;
    runCfg.system = sysCfg;
    runCfg.system.cores = cores;
    runCfg.system.simdBits = sve;
    runCfg.system.impPrefetcher = imp;
    runCfg.system.modelTlb = tlb;
    runCfg.system.watchdogCycles = watchdogCycles;
    runCfg.system.deadlineMs = deadlineMs;
    runCfg.system.cycleBudget = cycleBudget;
    runCfg.system.memBudgetBytes = memBudgetMb << 20;
    if (shrink)
        runCfg.system = sim::shrinkCaches(runCfg.system, scale);
    runCfg.partition = partitionKind;
    runCfg.programLanes = lanes;
    runCfg.tmu.lanes = lanes;
    runCfg.tmu.perLaneBytes = storage;
    if (auto v = runCfg.system.validate(); !v) {
        std::fprintf(stderr, "tmu_run: %s\n", v.error().str().c_str());
        return kExitBadArgs;
    }

    if (!planDump.empty() || !einsumExpr.empty())
        return dumpPlan(planDump, einsumExpr, lanes);

    const bool runBaseline = mode == "baseline" || mode == "both";
    const bool runTmu = mode == "tmu" || mode == "both";
    if (!runBaseline && !runTmu) {
        std::fprintf(stderr, "tmu_run: unknown mode '%s'\n",
                     mode.c_str());
        usage(argv[0]);
    }
    jobs = sim::SweepRunner::resolveJobs(jobs);

    // --shard i/N: this invocation owns the tasks whose name hashes to
    // residue i. The split is a pure function of the task name, so the
    // same sweep sharded any way always lands each task on exactly one
    // shard, and shard outputs merge byte-identically (tmu_merge.py).
    int shardIndex = 0, shardCount = 1;
    if (!shardSpec.empty()) {
        const std::size_t slash = shardSpec.find('/');
        if (slash == std::string::npos) {
            std::fprintf(stderr,
                         "tmu_run: --shard wants i/N, got '%s'\n",
                         shardSpec.c_str());
            return kExitBadArgs;
        }
        shardCount = intArg("--shard", shardSpec.substr(slash + 1), 1,
                            std::numeric_limits<int>::max());
        shardIndex = intArg("--shard", shardSpec.substr(0, slash), 0,
                            shardCount - 1);
    }

    const std::vector<std::string> names = splitList(workloadArg);
    if (names.empty())
        usage(argv[0]);

    // Journal plumbing. The fingerprint pins everything that shapes a
    // task's *result*; host-side execution knobs (--jobs, output
    // paths, --quiet) are deliberately excluded — a sweep may resume
    // with a different thread count and still reproduce its bytes.
    if (!resumePath.empty() && journalPath.empty())
        journalPath = resumePath;
    if (!resumePath.empty() && journalPath != resumePath) {
        std::fprintf(stderr, "tmu_run: --journal and --resume must "
                             "name the same file\n");
        return kExitBadArgs;
    }
    if (!journalPath.empty() &&
        (!traceOut.empty() || !telemetryJson.empty() ||
         !telemetryCsv.empty())) {
        // Timelines and telemetry series are not journaled, so a
        // resumed run could not reproduce them; refuse up front
        // rather than silently emit partial files.
        std::fprintf(stderr,
                     "tmu_run: --journal/--resume cannot be combined "
                     "with --trace-out or --telemetry-*\n");
        return kExitBadArgs;
    }
    const std::string fingerprint = sim::fingerprintJson({
        {"workload", workloadArg},
        {"input", input},
        {"mode", mode},
        {"scale", std::to_string(scale)},
        {"cores", std::to_string(cores)},
        // Topology and partitioning shape every result; --shard is
        // excluded like --jobs (it only picks which tasks run here).
        {"mesh", std::to_string(sysCfg.mem.meshW) + "x" +
                     std::to_string(sysCfg.mem.meshH)},
        {"llcSlices", std::to_string(sysCfg.mem.llcSlices)},
        {"memChannels", std::to_string(sysCfg.mem.memChannels)},
        {"partition", partitionKindName(partitionKind)},
        {"lanes", std::to_string(lanes)},
        {"sve", std::to_string(sve)},
        {"storage", std::to_string(storage)},
        {"preset", preset},
        {"imp", imp ? "1" : "0"},
        {"tlb", tlb ? "1" : "0"},
        {"shrink", shrink ? "1" : "0"},
        {"watchdogCycles", std::to_string(watchdogCycles)},
        {"deadlineMs", std::to_string(deadlineMs)},
        {"cycleBudget", std::to_string(cycleBudget)},
        {"memBudgetMb", std::to_string(memBudgetMb)},
        {"faultSpec", faultSpecText},
        {"faultSeed", std::to_string(faultSeed)},
    });
    std::vector<sim::TaskRecord> resumedRecords;
    if (!resumePath.empty()) {
        auto replay = sim::replayJournal(resumePath, fingerprint);
        if (!replay) {
            std::fprintf(stderr, "tmu_run: %s\n",
                         replay.error().str().c_str());
            return kExitBadArgs;
        }
        resumedRecords = std::move(replay->records);
        std::printf("Resuming: %zu task(s) replayed from %s%s\n",
                    resumedRecords.size(), resumePath.c_str(),
                    replay->linesDropped > 0 ? " (torn tail dropped)"
                                             : "");
    } else if (!journalPath.empty() && fileNonEmpty(journalPath)) {
        std::fprintf(stderr,
                     "tmu_run: journal '%s' already exists and is not "
                     "empty; pass --resume %s to continue it\n",
                     journalPath.c_str(), journalPath.c_str());
        return kExitBadArgs;
    }
    sim::SweepJournal journal;
    if (!journalPath.empty()) {
        auto j = sim::SweepJournal::open(journalPath, fingerprint);
        if (!j) {
            std::fprintf(stderr, "tmu_run: %s\n",
                         j.error().str().c_str());
            return kExitBadArgs;
        }
        journal = std::move(*j);
    }

    installStopHandlers();

    stats::TraceWriter tracer;
    if (!traceOut.empty()) {
        runCfg.trace = &tracer;
        if (jobs > 1) {
            // The timeline writer is one shared event stream;
            // interleaving pool threads into it would scramble the
            // trace.
            std::fprintf(stderr,
                         "tmu_run: --trace-out forces --jobs 1\n");
            jobs = 1;
        }
    }

    // Phase 1 (serial, command-line order): construct and prepare
    // every workload. Trace pids are assigned here so they do
    // not depend on the pool's execution order. Tasks already in the
    // resume journal skip preparation entirely — their outcome is
    // reconstructed from the record instead.
    std::vector<SweepTask> tasks;
    tasks.reserve(names.size());
    int nextTracePid = 1;
    bool bannerShown = false;
    for (std::size_t idx = 0; idx < names.size(); ++idx) {
        const std::string &workload = names[idx];
        if (shardCount > 1 &&
            mixSeed(0, workload) % static_cast<std::uint64_t>(
                                       shardCount) !=
                static_cast<std::uint64_t>(shardIndex))
            continue; // another shard's task
        SweepTask task;
        task.outcome.name = workload;
        task.globalIndex = idx;

        const sim::TaskRecord *rec = nullptr;
        for (const sim::TaskRecord &r : resumedRecords) {
            if (r.index == idx && r.task == workload)
                rec = &r;
        }
        if (rec != nullptr) {
            task.fromJournal = true;
            WorkloadOutcome &wo = task.outcome;
            wo.input = rec->input;
            wo.status = rec->status;
            wo.error = rec->error;
            wo.verified = rec->verified;
            task.output = rec->output;
            for (const sim::TaskRunRecord &run : rec->runs) {
                RunResult r;
                r.sim.termination =
                    terminationFromName(run.termination);
                r.verified = wo.verified;
                r.stats = run.stats;
                wo.runs.emplace_back(run.run, std::move(r));
            }
            std::printf("Replayed %s from journal (status %s)\n",
                        workload.c_str(), wo.status.c_str());
            tasks.push_back(std::move(task));
            continue;
        }

        if (gStop) {
            task.outcome.status = "interrupted";
            tasks.push_back(std::move(task));
            continue;
        }

        auto wlE = tryMakeWorkload(workload);
        if (!wlE) {
            task.outcome.error = wlE.error().str();
            task.outcome.status = "error";
            std::fprintf(stderr, "tmu_run: skipping: %s\n",
                         task.outcome.error.c_str());
            tasks.push_back(std::move(task));
            continue;
        }
        std::unique_ptr<Workload> wl = std::move(*wlE);

        const auto valid = wl->inputs();
        task.outcome.input = input.empty() ? valid.front() : input;
        if (std::find(valid.begin(), valid.end(),
                      task.outcome.input) == valid.end()) {
            std::string known;
            for (const auto &v : valid)
                known += (known.empty() ? "" : ", ") + v;
            task.outcome.error =
                TMU_ERR(Errc::UnknownName,
                        "input '%s' not valid for %s (known: %s)",
                        task.outcome.input.c_str(), workload.c_str(),
                        known.c_str())
                    .str();
            task.outcome.status = "error";
            std::fprintf(stderr, "tmu_run: skipping: %s\n",
                         task.outcome.error.c_str());
            tasks.push_back(std::move(task));
            continue;
        }

        std::printf("Preparing %s on %s at 1/%lld scale...\n",
                    workload.c_str(), task.outcome.input.c_str(),
                    static_cast<long long>(scale));
        wl->prepare(task.outcome.input, scale);
        if (!bannerShown) {
            std::printf("%s\n\n", runCfg.system.describe().c_str());
            bannerShown = true;
        }

        task.wl = std::move(wl);
        task.tracePidBase = nextTracePid;
        nextTracePid += (runBaseline ? 1 : 0) + (runTmu ? 1 : 0);
        tasks.push_back(std::move(task));
    }

    // Live progress line: completed/total, elapsed and ETA on stderr.
    // Only when stderr is an interactive terminal and not --quiet —
    // logs and pipes never see the \r-refreshed line.
    sim::SweepRunner::ProgressFn onTaskDone;
    const auto sweepStart = std::chrono::steady_clock::now();
    if (!quiet && isatty(fileno(stderr)) != 0) {
        onTaskDone = [&sweepStart](std::size_t done,
                                   std::size_t total) {
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - sweepStart)
                    .count();
            const double eta =
                done > 0 ? elapsed / static_cast<double>(done) *
                               static_cast<double>(total - done)
                         : 0.0;
            std::fprintf(stderr,
                         "\r[%zu/%zu] %.1fs elapsed, ETA %.1fs   %s",
                         done, total, elapsed, eta,
                         done == total ? "\n" : "");
            std::fflush(stderr);
        };
    }

    // Phase 2 (parallel): run each prepared task once. Each closure
    // touches only its own SweepTask (the journal serializes
    // internally); the shared tracer is only ever reachable when
    // --trace-out forced jobs back to 1 above.
    const bool wantTelemetry =
        !telemetryJson.empty() || !telemetryCsv.empty();
    const sim::SweepRunner runner(jobs);
    const auto stopRequested = [] { return gStop != 0; };
    runner.run(tasks.size(), [&](std::size_t idx) {
        SweepTask &task = tasks[idx];
        if (task.wl == nullptr)
            return; // error, interrupted-before-prepare, or replayed
        WorkloadOutcome &wo = task.outcome;
        RunConfig cfg = runCfg;
        int pid = task.tracePidBase;
        wo.verified = true;
        bool completed = true;

        auto runOne = [&](Mode m, const char *runName) {
            // Per-run fault stream keyed by task and run name: sweep
            // composition and job count never shift the decisions.
            sim::FaultInjector faults(
                mixSeed(faultSeed, wo.name + ":" + runName), faultSpec);
            cfg.mode = m;
            cfg.faults = faultSpec.any() ? &faults : nullptr;
            cfg.tracePid = pid++;
            std::unique_ptr<sim::TelemetrySampler> sampler;
            if (wantTelemetry) {
                sampler = std::make_unique<sim::TelemetrySampler>(
                    telemetryInterval);
                cfg.telemetry = sampler.get();
            }
            if (!traceOut.empty()) {
                tracer.processName(cfg.tracePid,
                                   wo.name + ":" + runName);
            }
            try {
                RunResult r = task.wl->run(cfg);
                if (sampler != nullptr) {
                    wo.telemetry.emplace_back(runName,
                                              std::move(sampler));
                }
                task.output += detail::format("[%s] ", wo.name.c_str());
                appendResult(task.output, runName, r);
                if (faultSpec.any()) {
                    task.output += detail::format(
                        "faults: %llu injected\n",
                        static_cast<unsigned long long>(
                            faults.totalInjected()));
                }
                wo.verified = wo.verified && r.verified;
                completed = completed && r.sim.completed();
                wo.runs.emplace_back(runName, std::move(r));
            } catch (const std::exception &e) {
                // One crashing task must not kill the sweep: the
                // exception fails this task like any other failure
                // (a task that threw is never verified).
                wo.verified = false;
                task.output += detail::format(
                    "[%s] %s run threw: %s\n", wo.name.c_str(), runName,
                    e.what());
            }
        };

        if (runBaseline)
            runOne(Mode::Baseline, "baseline");
        if (runTmu)
            runOne(Mode::Tmu, "tmu");
        if (mode == "both" && wo.runs.size() == 2 &&
            wo.runs[1].second.sim.cycles > 0) {
            task.output += detail::format(
                "speedup: %.2fx\n\n",
                static_cast<double>(wo.runs[0].second.sim.cycles) /
                    static_cast<double>(wo.runs[1].second.sim.cycles));
        }
        wo.status = wo.verified && completed ? "ok" : "failed";

        if (journal.isOpen()) {
            sim::TaskRecord rec;
            rec.index = task.globalIndex;
            rec.task = wo.name;
            rec.input = wo.input;
            rec.status = wo.status;
            rec.error = wo.error;
            rec.output = task.output;
            rec.verified = wo.verified;
            for (const auto &[name, r] : wo.runs) {
                rec.runs.push_back(
                    {name, sim::terminationName(r.sim.termination),
                     r.stats});
            }
            journal.append(rec);
        }
    }, onTaskDone, stopRequested);

    // Tasks the drain skipped (stop arrived before they were pulled)
    // never got a status; classify them now.
    for (SweepTask &task : tasks) {
        if (task.wl != nullptr && task.outcome.status.empty())
            task.outcome.status = "interrupted";
    }

    // Flush per-task reports and collect outcomes in task order.
    std::vector<WorkloadOutcome> outcomes;
    outcomes.reserve(tasks.size());
    int okCount = 0, failCount = 0;
    bool interrupted = gStop != 0;
    for (SweepTask &task : tasks) {
        std::fputs(task.output.c_str(), stdout);
        const std::string &st = task.outcome.status;
        if (st == "ok")
            ++okCount;
        else if (st == "interrupted")
            interrupted = true;
        else
            ++failCount; // "error" or "failed"
        outcomes.push_back(std::move(task.outcome));
    }

    if (dumpText) {
        for (const auto &wo : outcomes) {
            for (const auto &[name, r] : wo.runs) {
                std::printf("[%s %s]\n", wo.name.c_str(), name.c_str());
                std::printf("---------- Begin Simulation Statistics "
                            "----------\n");
                std::fputs(stats::renderStatsText(r.stats).c_str(),
                           stdout);
                std::printf("---------- End Simulation Statistics   "
                            "----------\n\n");
            }
        }
    }
    const stats::MetaList meta = {
        {"workload", workloadArg},
        {"input", input.empty() ? "default" : input},
        {"mode", mode},
        {"scale", std::to_string(scale)},
        {"cores", std::to_string(cores)},
        // Note: --shard is deliberately absent — shard exports carry
        // the same meta as the unsharded sweep so tmu_merge.py can
        // splice them into byte-identical unsharded output.
        {"mesh", std::to_string(sysCfg.mem.meshW) + "x" +
                     std::to_string(sysCfg.mem.meshH)},
        {"llcSlices", std::to_string(sysCfg.mem.llcSlices)},
        {"memChannels", std::to_string(sysCfg.mem.memChannels)},
        {"partition", partitionKindName(partitionKind)},
        {"lanes", std::to_string(lanes)},
        {"sve", std::to_string(sve)},
        {"faultSpec", faultSpecText},
        {"faultSeed", std::to_string(faultSeed)},
    };
    if (!statsJson.empty() &&
        stats::saveTextFile(statsJson, exportJson(meta, outcomes)))
        std::printf("wrote %s\n", statsJson.c_str());
    if (!statsCsv.empty() &&
        stats::saveTextFile(statsCsv, exportCsv(outcomes)))
        std::printf("wrote %s\n", statsCsv.c_str());
    if (!telemetryJson.empty() || !telemetryCsv.empty()) {
        stats::MetaList tmeta = meta;
        tmeta.emplace_back("telemetryInterval",
                           std::to_string(telemetryInterval));
        if (!telemetryJson.empty() &&
            stats::saveTextFile(telemetryJson,
                                exportTelemetryJson(tmeta, outcomes)))
            std::printf("wrote %s\n", telemetryJson.c_str());
        if (!telemetryCsv.empty() &&
            stats::saveTextFile(telemetryCsv,
                                exportTelemetryCsv(outcomes)))
            std::printf("wrote %s\n", telemetryCsv.c_str());
    }
    if (!traceOut.empty() && tracer.save(traceOut)) {
        std::printf("wrote %s (%zu events)\n", traceOut.c_str(),
                    tracer.eventCount());
    }

    if (interrupted) {
        std::fprintf(stderr,
                     "tmu_run: interrupted — in-flight tasks drained, "
                     "%s written\n",
                     journal.isOpen() ? "journal and partial exports"
                                      : "partial exports");
        return kExitInterrupted;
    }
    if (failCount == 0)
        return kExitOk;
    return okCount > 0 ? kExitPartialFailure : kExitAllFailed;
}
