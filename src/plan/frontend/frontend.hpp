/**
 * @file
 * Einsum-to-plan compiler frontend (docs/FRONTEND.md): compiles an
 * annotated einsum expression such as
 *
 *   Z(i) = A(i,j; csr) * B(j; dense)
 *
 * into a validated PlanSpec, so a workload is a one-line expression
 * plus host-data bindings rather than ~80 lines of hand-authored spec.
 * Three passes, each independently reachable for tests and tooling:
 *
 *   parseEinsum         — recursive-descent parser producing an AST,
 *                         with Expected-based diagnostics carrying
 *                         line/column and a quoted caret context;
 *   buildIterationGraph — orders the index variables into loop levels
 *                         and classifies each merge point (conjunctive
 *                         for multiply, disjunctive for ensemble sums)
 *                         plus the plan archetype the emitter targets;
 *   compileEinsum       — emits layers, TUs, streams, group streams
 *                         and callback structure, returning a PlanSpec
 *                         that passes validate() and lowers through
 *                         the existing reference/trace/program passes.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "plan/ir.hpp"

namespace tmu::plan::frontend {

/** 1-based source position inside the einsum text. */
struct SourcePos
{
    int line = 1;
    int col = 1;
};

/** One index subscript of a tensor reference (or output). */
struct AstIndex
{
    std::string name; //!< index variable, e.g. "i"
    /** Non-empty for a mapped output index `m(i)`: the map operand. */
    std::string map;
    SourcePos pos;
};

/** One tensor (or scalar-symbol) reference. */
struct AstTensor
{
    std::string name;     //!< operand name, e.g. "A" or "A^k"
    std::string ensemble; //!< superscript index ("k" for A^k)
    std::vector<AstIndex> indices; //!< empty for scalars
    std::string format;   //!< level-format annotation ("" = dense)
    bool scalarSymbol = false; //!< bare identifier factor (e.g. alpha)
    SourcePos pos;
};

/** One additive term: a product of factors. */
struct AstTerm
{
    std::vector<AstTensor> factors;
};

/** A parsed annotated einsum. */
struct Ast
{
    AstTensor output;     //!< scalar output when indices are empty
    std::string sumIndex; //!< ensemble reduction index ("sum_k")
    std::vector<AstTerm> terms;
    std::string text; //!< original expression
};

/** Parse @p expr; ParseError/Truncated/UnknownName/ConfigError
 *  diagnostics carry "einsum:<line>:<col>:" plus a caret context. */
Expected<Ast> parseEinsum(const std::string &expr);

/** Merge classification of one loop level (docs/FRONTEND.md). */
enum class MergeClass : std::uint8_t {
    Dense,       //!< dense loop (no sparse operand leads)
    Led,         //!< one sparse operand leads, others follow
    Conjunctive, //!< >=2 compressed operands under multiplication
    Disjunctive, //!< >=2 compressed operands under addition
};

const char *mergeClassName(MergeClass m);

/** One ordered loop level of the iteration graph. */
struct GraphNode
{
    std::string index; //!< loop variable of this level
    /** Singleton/COO position loops fuse several einsum indices. */
    std::vector<std::string> fused;
    bool inOutput = false;
    MergeClass merge = MergeClass::Dense;
    /** Names of the operands traversed at this level. */
    std::vector<std::string> operands;
};

/** Ordered loop nest plus the archetype the emitter targets. */
struct IterationGraph
{
    std::vector<GraphNode> order; //!< outermost first
    PlanKind kind = PlanKind::RowReduce;
    bool affine = false; //!< scalar bias/scale terms present
};

Expected<IterationGraph> buildIterationGraph(const Ast &ast);

/**
 * Host-data bindings by parsed operand name. Exactly the operands the
 * expression references must resolve here; a miss is a ConfigError
 * pointing at the operand's position in the expression.
 */
struct EinsumBindings
{
    std::map<std::string, const tensor::CsrMatrix *> csr;
    std::map<std::string, const tensor::DenseVector *> vec;
    std::map<std::string, const tensor::DenseMatrix *> mat;
    std::map<std::string, const tensor::CooTensor *> coo;
    /** Ensemble operands (A^k): one DCSR matrix per ensemble member. */
    std::map<std::string, const std::vector<tensor::DcsrMatrix> *>
        ensembles;
    /** Scatter maps for mapped output indices (Z(m(i), ...)). */
    std::map<std::string, const std::vector<Index> *> maps;
    /** Scalar symbols (affine bias/scale terms). */
    std::map<std::string, double> scalars;
    /** Output bindings (dense kinds; sparse kinds use collectors). */
    tensor::DenseVector *outVec = nullptr;
    tensor::DenseMatrix *outMat = nullptr;
};

/** Compilation knobs mirroring the hand-plan factory arguments. */
struct CompileOptions
{
    int lanes = 8;
    Index beg = 0;
    /** kInvalidIndex = the full outer domain of the driving operand. */
    Index end = kInvalidIndex;
    Variant variant = Variant::P1;
};

/** Parse, build the graph, and emit a validated PlanSpec. */
Expected<PlanSpec> compileEinsum(const std::string &expr,
                                 const EinsumBindings &bindings,
                                 const CompileOptions &options);

/** Human-readable rendering of a compiled plan (tmu_run --plan-dump). */
std::string describePlan(const PlanSpec &plan);

/**
 * Compile @p expr against small synthetic demo operands derived from
 * the expression's own format annotations, and render the plan plus
 * its TmuProgram::summary(). Lets `tmu_run --einsum "<expr>"` dump the
 * compiled structure of an arbitrary expression without registering a
 * workload.
 */
Expected<std::string> dumpEinsum(const std::string &expr,
                                 const CompileOptions &options);

} // namespace tmu::plan::frontend
