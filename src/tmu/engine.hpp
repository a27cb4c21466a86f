/**
 * @file
 * Cycle-level TMU engine (paper Sec. 5).
 *
 * Models, per cycle:
 *  - TU FSMs (fbeg/fite/fend) pushing elements into bounded stream
 *    queues carved from the per-lane storage (Secs. 5.1, 5.5);
 *  - the hierarchical memory arbiter issuing cacheline requests to the
 *    LLC — leftmost layer first, round-robin across a layer's TUs,
 *    config-order across a TU's streams, in-order within a queue,
 *    bounded outstanding requests (Secs. 5.4, 5.6);
 *  - TG FSMs (gbeg/gite/gend) merging/co-iterating lanes and producing
 *    predicates (Sec. 5.2);
 *  - the serialized outQ writer with double-buffered chunks installed
 *    into the host core's L2 (Secs. 5.3, 5.6).
 *
 * The engine computes real values; its record stream is verified
 * against the functional interpreter in tests.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/circular_queue.hpp"
#include "common/statreg.hpp"
#include "common/stats.hpp"
#include "common/tracewriter.hpp"
#include "sim/memsys.hpp"
#include "sim/system.hpp"
#include "tmu/functional.hpp"
#include "tmu/program.hpp"
#include "tmu/sizing.hpp"

namespace tmu::engine {

/** Engine configuration (paper Table 5 TMU row). */
struct EngineConfig
{
    int lanes = 8;
    std::size_t perLaneBytes = 2048;
    int maxOutstanding = 128;
    int issuePerCycle = 2;          //!< memory requests per cycle
    std::size_t chunkBytes = 1024;  //!< outQ chunk size
    int recordsPerCycle = 2;        //!< serializer bandwidth
    std::size_t stepQueueDepth = 16;
    std::size_t eventQueueDepth = 32;
    /**
     * Conjunctive-merge skip rate: mismatching (non-emitting) merge
     * steps retired per cycle. Intersections fast-forward through
     * disjoint key ranges with a comparator tree over the queue heads;
     * 1 = strictly one gite per cycle.
     */
    int conjSkipPerCycle = 4;
};

/** Engine-side counters. */
struct EngineStats
{
    std::uint64_t requestsIssued = 0;
    std::uint64_t coalescedLoads = 0;
    std::uint64_t elementsPushed = 0;
    std::uint64_t recordsEmitted = 0;
    std::uint64_t chunksSealed = 0;
    std::uint64_t outqBytes = 0;
    Cycle busyCycles = 0;
    double rwRatioSum = 0.0; //!< per-chunk read/write time ratios
    std::uint64_t rwChunks = 0;

    /**
     * Engine cycle attribution: every busy cycle is charged to exactly
     * one bucket (attrSum() == busyCycles, checked per run). A cycle
     * that advanced any FSM/queue/serializer state is fill / traverse /
     * drain by marshaling phase; a cycle that changed nothing stalled
     * either on outstanding memory (memsys-stall) or on the consumer
     * freeing an outQ chunk (backpressure).
     */
    Cycle fillCycles = 0;        //!< progress while filling a chunk
    Cycle traverseCycles = 0;    //!< progress, no chunk being filled
    Cycle drainCycles = 0;       //!< progress after serializer finish
    Cycle memsysStallCycles = 0; //!< no progress, requests in flight
    Cycle backpressureCycles = 0; //!< no progress, waiting on consumer

    /** Sum of the attribution buckets; must equal busyCycles. */
    Cycle
    attrSum() const
    {
        return fillCycles + traverseCycles + drainCycles +
               memsysStallCycles + backpressureCycles;
    }

    double
    readToWriteRatio() const
    {
        return rwChunks ? rwRatioSum / static_cast<double>(rwChunks)
                        : 0.0;
    }
};

/**
 * Minimal architectural context saved on a context switch
 * (paper Sec. 5.6): the engine quiesces at an outer-element boundary;
 * the saved iteration head lets the OS rebuild and resume the program.
 */
struct TmuContext
{
    Index outerResumeBeg = 0;
};

/**
 * One per-core TMU engine. Ticks as a System device; the host core
 * consumes its records through OutqSource.
 */
class TmuEngine : public sim::Tickable
{
  public:
    TmuEngine(int coreId, const EngineConfig &cfg,
              sim::MemorySystem &mem, const TmuProgram &program);

    /** TU states point into the engine's own program copy. */
    TmuEngine(const TmuEngine &) = delete;
    TmuEngine &operator=(const TmuEngine &) = delete;

    bool tick(Cycle now) override;

    /**
     * Sleep-until hint (sim/sched.hpp). The engine sleeps only when a
     * tick provably changed nothing (no FSM advanced, no request
     * issued or attempted, nothing serialized) and no sealed chunk
     * exists (the consumer could otherwise mutate outQ occupancy any
     * cycle): then the next possible change is the earliest in-flight
     * memory completion, or a port wake. Slept cycles' busy/occupancy/
     * round-robin bookkeeping is back-filled on the next tick.
     */
    Cycle wakeHint(Cycle now) const override;

    /** Registers the self-wake port (fired on outQ chunk free). */
    void bindScheduler(sim::Scheduler &sched, int handle) override;

    /** Bind the host core's consumer-wake port (fired on seal/finish). */
    void
    setConsumerWake(sim::Scheduler &sched, int handle)
    {
        consumerWake_.bind(sched, handle);
    }

    /**
     * Earliest cycle a popRecord poll could succeed *or have a side
     * effect* (fault-RNG draws): the gate a starved consumer may sleep
     * until. kWakeNever = no sealed chunk — the next record can only
     * appear via a seal, which fires the consumer-wake port.
     */
    Cycle recordAvailableAt(Cycle now) const;

    /** True when traversal, merging and marshaling all completed. */
    bool producerDone() const;

    /**
     * Pop the next record if available (its chunk sealed by @p now).
     * @param outqAddr out: host address of the record payload inside
     *        the outQ buffer (for the core's operand loads).
     */
    bool popRecord(Cycle now, OutqRecord &rec, Addr &outqAddr);

    /** True when every produced record has been consumed. */
    bool allConsumed() const;

    /** Ask the engine to stop at the next outer-element boundary. */
    void requestQuiesce();

    /** After requestQuiesce(): drained and ready to save? */
    bool quiesced() const;

    /** Save the minimal context (valid once quiesced). */
    TmuContext saveContext() const;

    /**
     * Rebuild a program to resume from a saved context: the layer-0
     * dense traversal restarts at the saved iteration head.
     */
    static TmuProgram rebaseProgram(TmuProgram program,
                                    const TmuContext &ctx);

    const EngineStats &stats() const { return stats_; }
    const QueuePlan &queuePlan() const { return plan_; }
    int coreId() const { return coreId_; }

    /**
     * Attach a timeline tracer (not owned; nullptr detaches). The
     * engine reports a fill/traverse/drain phase track on thread
     * 100+coreId, chunk fill/drain spans on thread 200+coreId, and an
     * outQ-occupancy counter track (sampled every 32 cycles).
     */
    void setTracer(stats::TraceWriter *tracer, int pid);

    /**
     * Register the engine counters under @p prefix (e.g. "tmu0.").
     * @p extended adds the occupancy histogram and chunk accounting.
     */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &prefix, bool extended) const;

    /** outQ resident-bytes histogram, sampled every 32 busy cycles. */
    const Histogram &outqOccupancy() const { return occupancyHist_; }

    /** Live outQ resident bytes (telemetry counter sampling). */
    std::size_t outqOccupancyBytes() const { return occupancyBytes_; }

    /** One-line-per-unit dump of FSM/queue state (deadlock triage). */
    std::string debugState() const override;

    /**
     * Monotonic useful-work counter for the forward-progress watchdog:
     * moves whenever the engine traverses, marshals, seals or drains —
     * so long fill phases with no core commits do not trip it.
     */
    std::uint64_t
    progressCount() const override
    {
        return stats_.elementsPushed + stats_.requestsIssued +
               stats_.recordsEmitted + stats_.chunksSealed +
               stats_.rwChunks;
    }

    /**
     * Attach a fault injector (borrowed; nullptr detaches). Sites:
     * delayed fills (fill-delay) and consumer backpressure
     * (outq-stall), both timing-only.
     */
    void setFaultInjector(sim::FaultInjector *faults)
    {
        faults_ = faults;
    }

  private:
    /** Readiness/request state of one mem-slot of one element. */
    struct MemSlotState
    {
        bool requested = false;
        Cycle ready = 0;
    };

    /** One element pushed into a TU's (jointly-controlled) streams. */
    struct TimedElem
    {
        std::vector<std::uint64_t> vals; //!< per stream slot
        std::vector<MemSlotState> mem;   //!< per mem-slot ordinal
        bool end = false;                //!< fiber-end control token
        Cycle pushed = 0;
    };

    /** One inter-layer step published by a TG. */
    struct StepRecord
    {
        LaneMask mask;
        std::vector<std::vector<std::uint64_t>> vals; //!< per lane
    };

    /** Serializer token: the structural event stream of one TG. */
    struct EventToken
    {
        CallbackEvent kind = CallbackEvent::GroupIte;
        bool descend = false;
        std::vector<OutqRecord> records; //!< registered callbacks only
    };

    /**
     * Issue table entry of one mem slot, compiled at construction: the
     * request address is base + 8 * (index + index2), and the request
     * may go once the loads of every gating mem ordinal are ready.
     */
    struct MemIssue
    {
        Addr base = 0;
        StreamRef index;  //!< own slot, or a lane/slot of the view
        StreamRef index2; //!< second adder operand; invalid if unused
        bool readsView = false; //!< an operand comes from the view
        /** Own mem ordinals the address depends on, resolved through
         *  Lin/Map/Ldr chains (leftward values are ready on entry). */
        std::vector<int> gates;
    };

    /** Per-TU dynamic state. */
    struct TuState
    {
        TuRef ref;
        const TuDesc *desc = nullptr; //!< points into prog_
        enum class Phase { WaitStep, Iter, PushEnd, Done } phase =
            Phase::WaitStep;
        Index cur = 0;
        Index end = 0;
        std::uint64_t stepCursor = 0; //!< parent steps examined
        StepRecord view;              //!< current instance's parent step
        bool hasView = false;
        CircularQueue<TimedElem> q;
        /** Arbiter issue pointer per mem-slot ordinal. */
        struct SlotPtr
        {
            std::size_t elem = 0;
            Addr lastLine = ~Addr{0};
            Cycle lastReady = 0;
            /** The LLC's refusal of elem's request; cleared when elem
             *  leaves the pointer or its address may change. */
            sim::LlcRefusal refused;
        };
        std::vector<SlotPtr> slotPtr;
        std::vector<MemIssue> issue; //!< per mem-slot ordinal
    };

    /** Per-layer (TG) dynamic state. */
    struct TgState
    {
        int layer = 0;
        enum class Phase { WaitParent, Begin, Iterate, Flush, Finish,
                           Done } phase = Phase::WaitParent;
        std::uint64_t parentCursor = 0;
        LaneMask active;
        LaneMask flushRemaining; //!< Flush: lanes whose END is pending
        std::deque<StepRecord> steps; //!< published for layer+1
        std::uint64_t stepsBase = 0;  //!< seq of steps.front()
        std::uint64_t stepsProduced = 0;
        CircularQueue<EventToken> events;
        std::uint64_t eventsProduced = 0;
        bool doneFlag = false;
    };

    /** One outQ chunk. */
    struct Chunk
    {
        enum class State { Free, Filling, Sealed } state = State::Free;
        std::deque<std::pair<OutqRecord, Addr>> records;
        std::size_t usedBytes = 0;
        Cycle fillStart = 0;
        Cycle sealAt = 0;
        Cycle consumeStart = 0;
        bool consuming = false;
    };

    void tickTus(Cycle now);
    void tickArbiter(Cycle now);
    void tickTgs(Cycle now);
    void tickSerializer(Cycle now);
    void popConsumedSteps(int layer);

    /** Outcome of one TG co-iteration attempt. */
    enum class IterOutcome { Blocked, Skipped, Emitted, Transitioned };
    IterOutcome tgIterateOnce(TgState &tg, Cycle now);
    void popTuHead(int layer, int lane);
    std::vector<OutqRecord> makeRecords(int layer, CallbackEvent ev,
                                        LaneMask mask,
                                        bool withOperands);

    LaneMask activeForStep(int layer, LaneMask parentMask) const;
    std::uint64_t resolveValue(const TuState &tu, const StreamRef &ref,
                               const std::vector<std::uint64_t> &vals)
        const;
    /** True once the loads gating @p mi's address have arrived. */
    static bool addressReady(const MemIssue &mi, const TimedElem &e,
                             Cycle now);
    bool elemReady(const TuState &tu, const TimedElem &e,
                   Cycle now) const;
    Index mergeKeyOf(const TuState &tu, const TimedElem &e) const;
    void pushElement(TuState &tu, Cycle now);
    bool tuDone(const TuState &tu) const;
    void sealChunk(int c, Cycle now);
    int fillingChunk(Cycle now);

    int coreId_;
    EngineConfig cfg_;
    sim::MemorySystem &mem_;
    TmuProgram prog_;
    QueuePlan plan_;
    EngineStats stats_;

    std::vector<std::vector<TuState>> tus_; //!< [layer][lane]
    std::vector<TgState> tgs_;
    std::vector<int> laneRr_; //!< arbiter round-robin start per layer

    std::vector<Cycle> outstanding_; //!< in-flight request completions
    /**
     * In-flight cacheline requests engine-wide: the arbiter works at
     * cacheline granularity (Sec. 5.4), so lanes traversing interleaved
     * slices of one fiber share a single request per line.
     */
    std::unordered_map<Addr, Cycle> inflightLines_;

    // Serializer state.
    std::vector<int> stack_;
    bool serializerDone_ = false;

    // outQ double buffer (real host memory for the cache model).
    std::vector<std::uint8_t> outqBuf_;
    Chunk chunks_[2];
    int curChunk_ = -1;     //!< chunk being filled, -1 none
    int nextFill_ = 0;      //!< chunk index that fills next
    int consumeChunk_ = 0;  //!< chunk index next consumed

    bool quiesceRequested_ = false;
    Index resumeCur_ = 0;

    sim::FaultInjector *faults_ = nullptr; //!< borrowed, may be null
    Cycle consumeStallUntil_ = 0; //!< outq-stall injection deadline

    // Sleep/wake bookkeeping (event-driven scheduler).
    bool changed_ = false;      //!< any state mutation this tick
    /** Layers whose round-robin pointer advanced this tick (layers
     *  past an outstanding-full arbiter stop stay frozen). */
    int arbLayersAdvanced_ = 0;
    Cycle lastTicked_ = 0;
    /** Attribution bucket each slept cycle charges to: the no-change
     *  classification of the frozen state (engine sleeps only when a
     *  tick changed nothing). */
    Cycle EngineStats::*sleepAttr_ = &EngineStats::memsysStallCycles;
    sim::WakePort consumerWake_; //!< host core (seal / producer done)
    sim::WakePort selfWake_;     //!< this engine (outQ chunk freed)

    stats::TraceWriter *tracer_ = nullptr; //!< borrowed, may be null
    int tracePid_ = 0;
    std::size_t occupancyBytes_ = 0; //!< record bytes resident in outQ
    Histogram occupancyHist_;
};

} // namespace tmu::engine
