/**
 * @file
 * TMU program representation: the dataflow configuration a host thread
 * writes into the engine (paper Sec. 4, Fig. 8).
 *
 * A program is a grid of Traversal Units (TUs): columns are *layers*
 * (one per loop level, dataflow flows rightward), rows are *lanes*
 * (parallel traversal / merging). Each TU owns a fiber-iteration
 * primitive (Table 1) and a set of data streams (Table 2); each layer
 * has a Traversal Group (TG) configured with an inter-layer mode
 * (Table 3) and callback registrations (Sec. 4.3).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "tensor/levels.hpp"

namespace tmu::engine {

/** Most lanes a program or engine may have: one LaneMask bit each. */
inline constexpr int kMaxLanes = 64;

/** Fiber-iteration primitives (paper Table 1). */
enum class TraversalKind : std::uint8_t {
    Dense, //!< DnsFbrT(beg, end, stride): constant bounds
    Range, //!< RngFbrT(begStr, endStr, offset, stride): compressed lookup
    Index, //!< IdxFbrT(begStr, size, offset, stride): dense lookup
};

/** Data stream types (paper Table 2). */
enum class StreamKind : std::uint8_t {
    Ite, //!< the TU's iteration index
    Mem, //!< p[x]: load from base address + parent index
    Lin, //!< a*x + b
    Map, //!< small constant table a[x]
    Ldr, //!< &p[x]: address generation
    Fwd, //!< forwards a leftward-TU stream value along the fiber
};

/** Inter-layer group configurations (paper Table 3). */
enum class GroupMode : std::uint8_t {
    Single,   //!< iterate a single lane
    BCast,    //!< broadcast one lane's steps to a parallel group
    Keep,     //!< keep one lane out of a parallel group
    DisjMrg,  //!< disjunctively merge (union) the layer's lanes
    ConjMrg,  //!< conjunctively merge (intersect) the layer's lanes
    LockStep, //!< co-iterate the layer's lanes
};

/** Callback trigger events (paper Sec. 4.3). */
enum class CallbackEvent : std::uint8_t {
    GroupBegin, //!< gbeg: a group traversal/merge starts
    GroupIte,   //!< gite: one co-iteration/merge step
    GroupEnd,   //!< gend: the group's traversal/merge completed
};

const char *traversalKindName(TraversalKind k);
const char *streamKindName(StreamKind k);
const char *groupModeName(GroupMode m);
const char *callbackEventName(CallbackEvent e);

/** Handle of a TU within a program: (layer, lane, index). */
struct TuRef
{
    int layer = -1;
    int lane = -1;
    bool valid() const { return layer >= 0 && lane >= 0; }
    bool operator==(const TuRef &) const = default;
};

/** Handle of a data stream: the TU it lives in plus its slot. */
struct StreamRef
{
    TuRef tu;
    int slot = -1;
    bool valid() const { return tu.valid() && slot >= 0; }
    bool operator==(const StreamRef &) const = default;
};

/** How an 8-byte stream element should be interpreted. */
enum class ElemType : std::uint8_t { I64, F64 };

/** Static description of one data stream. */
struct StreamDesc
{
    StreamKind kind = StreamKind::Ite;
    ElemType elem = ElemType::I64;
    Addr base = 0;              //!< Mem/Ldr base address
    StreamRef parent;           //!< index source (defaults to own Ite)
    /**
     * Optional second index source, added to the first (the TMU's
     * address adder): mem -> p[x1 + x2], lin -> a*x1 + b + x2,
     * ldr -> &p[x1 + x2]. Invalid means unused.
     */
    StreamRef parent2;
    double linA = 1.0;          //!< Lin coefficient
    double linB = 0.0;          //!< Lin offset
    std::vector<std::int64_t> map; //!< Map table (<= 16 entries)
    StreamRef fwdSource;        //!< Fwd: leftward-TU stream to forward
    std::string name;           //!< for debugging / Table-4 bench
};

/** Static description of one TU. */
struct TuDesc
{
    TraversalKind kind = TraversalKind::Dense;
    // Dense bounds.
    Index beg = 0;
    Index end = 0;
    // Range/Index bound sources (streams of a leftward TU).
    StreamRef begStream;
    StreamRef endStream; //!< Range only
    Index size = 0;      //!< Index only
    Index offset = 0;
    Index stride = 1;
    /** Merge key for DisjMrg/ConjMrg groups (default: the ite value). */
    StreamRef mergeKey;
    /** Sizing hint: expected elements per fiber instance. */
    Index expectedFiberLen = 16;

    std::vector<StreamDesc> streams; //!< slot 0 is always the Ite stream
};

/** A group-level operand: one constituent stream per participating lane. */
struct GroupStreamDesc
{
    std::vector<StreamRef> perLane;
    ElemType elem = ElemType::F64;
    std::string name;
};

/** Special operand index meaning "marshal the msk predicate". */
inline constexpr int kMskOperand = -1;

/** One callback registration (paper: add_callback(event, id, args)). */
struct CallbackDesc
{
    CallbackEvent event = CallbackEvent::GroupIte;
    int callbackId = 0;
    /** Operand list: indexes into the layer's group streams, or
     *  kMskOperand for the predicate. */
    std::vector<int> operands;
};

/** Static description of one layer (its TG). */
struct LayerDesc
{
    GroupMode mode = GroupMode::Single;
    int keepLane = 0; //!< Keep: which lane survives
    std::vector<TuDesc> tus; //!< index = lane
    std::vector<GroupStreamDesc> groupStreams;
    std::vector<CallbackDesc> callbacks;

    int lanes() const { return static_cast<int>(tus.size()); }
};

/**
 * A complete TMU program. Built through the fluent helpers below and
 * consumed by both the functional interpreter and the timing engine.
 */
class TmuProgram
{
  public:
    /** Append a layer with the given group mode; returns its index. */
    int addLayer(GroupMode mode, int keepLane = 0);

    /** Create a DnsFbrT TU in @p layer / @p lane (Table 1). */
    TuRef dnsFbrT(int layer, int lane, Index beg, Index end,
                  Index stride = 1);

    /** Create a RngFbrT TU: bounds from leftward streams (Table 1). */
    TuRef rngFbrT(int layer, int lane, StreamRef beg, StreamRef end,
                  Index offset = 0, Index stride = 1);

    /** Create an IdxFbrT TU: beg from a leftward stream (Table 1). */
    TuRef idxFbrT(int layer, int lane, StreamRef beg, Index size,
                  Index offset = 0, Index stride = 1);

    /** The TU's implicit iteration-index stream (slot 0). */
    StreamRef iteStream(TuRef tu) const;

    /** Add a mem stream p[x (+ x2)]; @p index defaults to the TU's ite. */
    StreamRef addMemStream(TuRef tu, const void *base,
                           ElemType elem = ElemType::F64,
                           StreamRef index = {}, std::string name = {},
                           StreamRef index2 = {});

    /** Add a linear-transform stream a*x + b (+ x2). */
    StreamRef addLinStream(TuRef tu, double a, double b,
                           StreamRef index = {}, std::string name = {},
                           StreamRef index2 = {});

    /** Add a small-map stream (<= 16 entries). */
    StreamRef addMapStream(TuRef tu, std::vector<std::int64_t> map,
                           StreamRef index = {}, std::string name = {});

    /** Add an address-generation stream &p[x (+ x2)]. */
    StreamRef addLdrStream(TuRef tu, const void *base,
                           StreamRef index = {}, std::string name = {},
                           StreamRef index2 = {});

    /** Add a stream forwarding a leftward TU's value along the fiber. */
    StreamRef addFwdStream(TuRef tu, StreamRef source,
                           std::string name = {});

    /** Set the merge key stream of a TU (for DisjMrg/ConjMrg layers). */
    void setMergeKey(TuRef tu, StreamRef key);

    /** Set the sizing hint for a TU's fiber length. */
    void setExpectedFiberLen(TuRef tu, Index len);

    /**
     * Rewrite a dense TU's constant bounds (context-switch resume,
     * paper Sec. 5.6: the saved ite head becomes the new begin).
     */
    void setDenseBounds(TuRef tu, Index beg, Index end);

    /**
     * Register a group-level vector operand marshaled across lanes
     * (Fig. 8: add_vec_str). Returns the operand index for callbacks.
     */
    int addVecStream(int layer, std::vector<StreamRef> perLane,
                     ElemType elem = ElemType::F64, std::string name = {});

    /** Register a callback (Fig. 8: add_callback). */
    void addCallback(int layer, CallbackEvent event, int callbackId,
                     std::vector<int> operands);

    int numLayers() const { return static_cast<int>(layers_.size()); }
    int maxLanes() const;
    const LayerDesc &layer(int l) const
    {
        return layers_.at(static_cast<size_t>(l));
    }
    const TuDesc &tu(TuRef ref) const;
    const StreamDesc &stream(StreamRef ref) const;

    /**
     * Validate structural invariants: bounds streams come from the
     * previous layer, lanes fit the engine, parents exist. Fatals with
     * a message on violation; used at configuration time.
     */
    void validate(int engineLanes) const;

    /** Per-layer one-line description of the traversal structure. */
    std::string describe() const;

    /**
     * Table-4 style digest: the sets of traversal primitives, data
     * streams and group modes the program instantiates, plus callback
     * event counts ("traversals | streams | groups | callbacks").
     * Callback-id *values* deliberately do not appear, so legacy and
     * plan-scoped id assignments summarize identically.
     */
    std::string summary() const;

  private:
    TuRef addTu(int layer, int lane, TuDesc desc);
    StreamRef addStream(TuRef tu, StreamDesc desc);
    TuDesc &tuMutable(TuRef ref);

    std::vector<LayerDesc> layers_;
};

} // namespace tmu::engine
