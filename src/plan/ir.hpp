/**
 * @file
 * Kernel-plan IR: one declarative spec per Table-4 kernel, lowered to
 * (1) a golden reference evaluator over the src/tensor iterators,
 * (2) the SVE micro-op trace of the baseline software kernel,
 * (3) the per-core engine::TmuProgram plus its callback-handler table.
 *
 * A plan describes an einsum over level-formatted operands (dense /
 * compressed / singleton per level, following the Sparse Abstract
 * Machine and TeAAL format vocabularies), the iteration graph as a
 * list of loop layers (each a Traversal Group of per-lane fiber
 * iterators with group mode, merge keys and data streams), and the
 * compute attached to callback events (reduction, workspace
 * accumulate/flush, merge emit, counting, rank-FMA).
 *
 * Everything is referenced *by name*: streams name their index parents
 * within the TU, traversal bounds name streams of the previous layer,
 * group streams name the per-lane constituent, callbacks name group
 * streams. Callback ids are plan-scoped: allocated sequentially at
 * registration time and checked for name collisions.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "tensor/coo.hpp"
#include "tensor/csr.hpp"
#include "tensor/dcsr.hpp"
#include "tensor/dense.hpp"
#include "tmu/program.hpp"

namespace tmu::plan {

/** Per-level storage of one operand (TACO/SAM level formats). */
enum class LevelFormat : std::uint8_t { Dense, Compressed, Singleton };

const char *levelFormatName(LevelFormat f);

/** One einsum operand: name, index subscripts, per-level formats. */
struct OperandSpec
{
    std::string name;    //!< e.g. "A"
    std::string indices; //!< einsum subscripts, e.g. "ik"
    std::vector<LevelFormat> levels;
};

/** One data stream of a TU (paper Table 2), bound to host arrays. */
struct StreamSpec
{
    std::string name; //!< unique within its TU
    engine::StreamKind kind = engine::StreamKind::Mem;
    engine::ElemType elem = engine::ElemType::I64;
    const void *base = nullptr; //!< Mem/Ldr base pointer
    double linA = 1.0;          //!< Lin coefficient
    double linB = 0.0;          //!< Lin offset
    /** Index-source stream in the same TU ("" = the TU's iterator). */
    std::string parent;
    /** Optional second index source (the TMU's address adder). */
    std::string parent2;
    /** Fwd only: name of the forwarded parent-layer stream. */
    std::string fwdOf;
};

/** One traversal unit: a fiber iterator plus its data streams. */
struct TuSpec
{
    engine::TraversalKind kind = engine::TraversalKind::Dense;
    // Dense bounds.
    Index beg = 0;
    Index end = 0;
    // Range/Index bound sources: stream names resolved in the previous
    // layer (same lane when it exists there, lane 0 otherwise).
    std::string begStream;
    std::string endStream; //!< Range only
    Index size = 0;        //!< Index only
    Index offset = 0;
    Index stride = 1;
    /** Merge key stream (this TU) for DisjMrg/ConjMrg layers. */
    std::string mergeKey;
    Index expectedFiberLen = 16;
    std::vector<StreamSpec> streams;
};

/** One loop level of the iteration graph. */
struct LayerSpec
{
    std::string index; //!< einsum index variable, e.g. "i"
    engine::GroupMode mode = engine::GroupMode::Single;
    std::vector<TuSpec> tus; //!< one per lane
};

/**
 * Name of the per-lane constituent when declaring a group stream from
 * each lane's implicit iteration-index stream.
 */
inline constexpr const char *kIteStream = "@ite";

/** One group-level vector operand marshaled across a layer's lanes. */
struct GroupStreamSpec
{
    std::string name; //!< plan-scoped operand name
    int layer = 0;
    /**
     * Per-lane constituent stream name (or kIteStream): collected, in
     * lane order, from every TU of the layer that defines it.
     */
    std::string stream;
    engine::ElemType elem = engine::ElemType::F64;
};

/** Marker operand name marshaling the lane predicate (msk). */
inline constexpr const char *kMskStream = "@msk";

/** Semantic action a callback performs on the host core. */
enum class ComputeKind : std::uint8_t {
    DotAccumulate,  //!< sum += a_i * b_i over active lanes
    RowStore,       //!< out[row] = (bias + scale *) sum; advance row
    LatchScalar,    //!< latch one scalar operand (a-value)
    WorkspaceAccum, //!< acc[j] += latched * b_j, seen-bitmap novelty
    WorkspaceFlush, //!< sort touched, emit row, reset workspace
    MergeRowLatch,  //!< latch the merged row coordinate
    MergeLaneReduce,//!< emit (row, col, sum of active lanes)
    MergeRowEnd,    //!< row bookkeeping iop
    CountHit,       //!< ++count (conjunctive merge hit)
    LatchLanes,     //!< latch per-lane (value, out-address) pairs (P1)
    LatchNnzAddr,   //!< latch one (value, out-row address) pair (P2)
    RankFmaScatter, //!< per-lane z[j] += v * b * c, j advances (P1)
    RankFmaVector,  //!< vector z[jBase..] += v * b_j * c_j (P2)
    SddmmLatchEdge, //!< latch (col, a-value) of the sampled edge
    SddmmEmit,      //!< emit (col, a * dot) for the latched edge
    EmitRowNnz,     //!< close a collector row: push per-row nnz count
    LatchRowAddr,   //!< latch the scatter-row output address
    ScatterFmaVector, //!< vector zrow[jBase..] += latched * b_j
};

/** One callback registration with plan-scoped id and semantics. */
struct CallbackSpec
{
    std::string name; //!< plan-scoped, e.g. "ri"
    int id = 0;       //!< assigned sequentially by PlanSpec::addCallback
    int layer = 0;
    engine::CallbackEvent event = engine::CallbackEvent::GroupIte;
    /** Operand names: group streams of the layer, or kMskStream. */
    std::vector<std::string> operands;
    ComputeKind compute = ComputeKind::DotAccumulate;
};

/** Iteration-graph archetype driving the reference/trace lowerings. */
enum class PlanKind : std::uint8_t {
    RowReduce,       //!< SpMV / PageRank: out_i = f(sum_j A_ij x_j)
    WorkspaceSpGEMM, //!< SpMSpM: Gustavson row-wise workspace product
    KWayMerge,       //!< SpKAdd: hierarchical disjunctive merge
    Intersect,       //!< TriangleCount: conjunctive merge count
    CooRankFma,      //!< MTTKRP: COO nonzeros x rank-loop FMA
    Sddmm,           //!< SDDMM: Z_ij = A_ij * sum_k B_ik C_jk
    SpmmWorkspace,   //!< sparse-output SpMM: Z_ij = sum_k A_ik B_kj
    SpmmScatter,     //!< GNN SpMM+scatter: Z_{m(i),j} += A_ik B_kj
};

const char *planKindName(PlanKind k);

/** Parallelization variant (paper Sec. 5.2 P0/P1/P2 namings). */
enum class Variant : std::uint8_t { P0, P1, P2 };

/**
 * Branch-predictor PC slots and trace knobs of the baseline kernel,
 * whose PC numbering and header shape are kernel-specific.
 */
struct TraceShape
{
    /** PC slots, per-kind meaning (in loop order). */
    std::vector<std::uint16_t> pcs;
    /** RowReduce: emit the iop after the row-pointer loads (SpMV yes,
     *  PageRank no). */
    bool headerIop = true;
};

/** Typed host-data bindings the lowerings evaluate against. */
struct Bindings
{
    const tensor::CsrMatrix *a = nullptr;   //!< RowReduce / SpGEMM / Intersect
    const tensor::CsrMatrix *b = nullptr;   //!< SpGEMM second operand
    const tensor::DenseVector *x = nullptr; //!< RowReduce input vector
    tensor::DenseVector *out = nullptr;     //!< RowReduce output vector
    const std::vector<tensor::DcsrMatrix> *parts = nullptr; //!< KWayMerge
    const tensor::CooTensor *t = nullptr;   //!< CooRankFma tensor
    const tensor::DenseMatrix *bm = nullptr; //!< CooRankFma/Sddmm/Spmm B
    const tensor::DenseMatrix *cm = nullptr; //!< CooRankFma/Sddmm C factor
    tensor::DenseMatrix *z = nullptr;        //!< dense matrix accumulator
    /** SpmmScatter row map: output row of source row i is map[i]. */
    const std::vector<Index> *map = nullptr;
    /** RowReduce row update out = bias + scale * sum (PageRank). */
    bool rowUpdate = false;
    double scale = 1.0;
    double bias = 0.0;
};

/** A complete kernel plan. */
struct PlanSpec
{
    std::string name;    //!< e.g. "SpMV P1"
    std::string einsum;  //!< e.g. "Z_i = A_ij B_j"
    std::string formats; //!< e.g. "A=CSR" (Table-4 column)
    PlanKind kind = PlanKind::RowReduce;
    Variant variant = Variant::P1;
    int lanes = 8;      //!< TU lanes the program parallelizes over
    Index beg = 0;      //!< outer-domain partition start
    Index end = 0;      //!< outer-domain partition end

    std::vector<OperandSpec> operands;
    std::vector<LayerSpec> layers;
    std::vector<GroupStreamSpec> groupStreams;
    std::vector<CallbackSpec> callbacks;

    Bindings bind;
    TraceShape trace;

    /**
     * Register a callback: allocates the next plan-scoped id (1-based,
     * registration order) and fatals on a name collision.
     */
    int addCallback(std::string cbName, int layer,
                    engine::CallbackEvent event,
                    std::vector<std::string> operandNames,
                    ComputeKind compute);

    /** Plan-scoped id lookup; fatals on an unknown name. */
    int callbackId(const std::string &cbName) const;

    /**
     * Structural validation: stream/bound/group references resolve,
     * merge layers have keys, callback operand names exist. Fatals
     * with a message on violation.
     */
    void validate() const;
};

} // namespace tmu::plan
