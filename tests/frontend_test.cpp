/**
 * @file
 * Einsum-frontend tests (docs/FRONTEND.md).
 *
 * Four pinned invariants:
 *   - negative diagnostics: a table of malformed expressions must fail
 *     with the exact TmuError code, the "einsum:<line>:<col>:" prefix
 *     and the caret under the offending column;
 *   - round trip: every committed plan's einsum field parses verbatim
 *     through the grammar it is documented in;
 *   - equivalence: compiling each legacy kernel's einsum reproduces
 *     the hand-authored PlanSpec field for field, the same lowered
 *     record stream and summary digest, and byte-identical sim.cycles
 *     under both the event-driven and dense scheduler models;
 *   - the frontend-only workloads (SDDMM, SpMM, SpMM-SC) agree with
 *     plain host loops across every fuzzer shape class, reference and
 *     trace legs both.
 */

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "kernels/spmv.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "plan/plans.hpp"
#include "testing/shapes.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tmu/functional.hpp"
#include "workloads/wl_einsum.hpp"
#include "workloads/workload.hpp"

namespace tmu {
namespace {

using engine::OutqRecord;
using engine::TmuProgram;
using plan::frontend::CompileOptions;
using plan::frontend::EinsumBindings;
using plan::frontend::MergeClass;
using tensor::CsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;

/** The pinned Table-4 operands (same construction as plan_test). */
struct Inputs
{
    CsrMatrix a;
    CsrMatrix at;
    DenseVector dv{24};
    DenseVector x{24};
    std::vector<tensor::DcsrMatrix> parts;
    CsrMatrix lower;
    tensor::CooTensor coo;
    DenseMatrix bm{24, 8};
    DenseMatrix cm{24, 8};
    DenseMatrix z{16, 8, 0.0};

    Inputs()
    {
        tensor::CsrGenConfig gc;
        gc.rows = 24;
        gc.cols = 24;
        gc.nnzPerRow = 4;
        gc.seed = 3;
        a = tensor::randomCsr(gc);
        at = tensor::transposeCsr(a);
        Rng rng(5);
        for (Index i = 0; i < 24; ++i)
            dv[i] = rng.nextValue(0.1, 1.0);
        for (Index i = 0; i < 24; ++i)
            for (Index j = 0; j < 8; ++j)
                bm(i, j) = rng.nextValue(0.1, 1.0);
        for (Index i = 0; i < 24; ++i)
            for (Index j = 0; j < 8; ++j)
                cm(i, j) = rng.nextValue(0.1, 1.0);
        parts = tensor::splitCyclic(a, 4);
        lower = tensor::lowerTriangle(tensor::rmatGraph(5, 4, 7));
        coo = tensor::randomCooTensor({16, 24, 24}, 150, 0.0, 9);
    }
};

// ---------------------------------------------------------------------
// Negative diagnostics: exact error codes and caret positions.
// ---------------------------------------------------------------------

struct DiagCase
{
    const char *label;
    const char *expr;
    Errc code;
    int line;
    int col;
    const char *needle; //!< substring the message must contain
};

const DiagCase kDiagCases[] = {
    {"unbound-output-index", "Z(i,q) = A(i,j; csr) * B(j; dense)",
     Errc::UnknownName, 1, 5, "not bound by any factor"},
    {"rank-format-mismatch", "Z(i) = A(i,j,k; csr) * B(j; dense)",
     Errc::ConfigError, 1, 8, "stores 2 levels but 'A' has 3"},
    {"unknown-format", "Z(i) = A(i,j; blocked) * B(j; dense)",
     Errc::UnknownName, 1, 15, "unknown format annotation 'blocked'"},
    {"truncated", "Z(i) = A(i,j", Errc::Truncated, 1, 13, ""},
    {"unexpected-char", "Z(i) = A(i,j; csr) ? B(j; dense)",
     Errc::ParseError, 1, 20, ""},
    // The ISSUE's motivating example: dcsr outside a sum_k ensemble
    // has no emitter, and the caret points at the operand.
    {"dcsr-no-emitter", "y(i) = A(i,j; dcsr) * x(j; dense)",
     Errc::ConfigError, 1, 8, "has no emitter in this position"},
    {"additive-tensor-terms",
     "Z(i,j; csr) = A(i,j; csr) + B(i,j; csr)", Errc::ConfigError, 1,
     29, "sum_k"},
    {"spmm-missing-output-annotation",
     "Z(i,j) = A(i,k; csr) * B(k,j; dense)", Errc::ConfigError, 1, 1,
     "sparse output annotation"},
    {"multi-line", "Z(i) =\n  A(i,j; nope)", Errc::UnknownName, 2, 10,
     "unknown format annotation"},
};

TEST(FrontendDiag, TableOfNegativeCases)
{
    for (const DiagCase &c : kDiagCases) {
        SCOPED_TRACE(c.label);
        const auto r = plan::frontend::compileEinsum(
            c.expr, EinsumBindings{}, CompileOptions{});
        ASSERT_FALSE(r.ok()) << c.expr;
        EXPECT_EQ(r.error().code(), c.code);
        const std::string text = r.error().str();
        const std::string prefix = detail::format(
            "einsum:%d:%d:", c.line, c.col);
        EXPECT_NE(text.find(prefix), std::string::npos)
            << "missing '" << prefix << "' in:\n" << text;
        // The caret sits on its own final line, under column <col> of
        // the quoted source line (two-space quote indent).
        const std::string caret =
            "\n  " + std::string(static_cast<size_t>(c.col - 1), ' ') +
            "^";
        EXPECT_EQ(text.compare(text.size() - caret.size(),
                               caret.size(), caret),
                  0)
            << "caret misplaced in:\n" << text;
        if (c.needle[0] != '\0') {
            EXPECT_NE(text.find(c.needle), std::string::npos)
                << "missing '" << c.needle << "' in:\n" << text;
        }
    }
}

TEST(FrontendDiag, MissingBindingPointsAtOperand)
{
    // A well-formed expression whose operand has no bound host data:
    // the ConfigError caret names the operand position.
    EinsumBindings fb;
    const auto r = plan::frontend::compileEinsum(
        "Z(i) = A(i,j; csr) * B(j; dense)", fb, CompileOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), Errc::ConfigError);
    EXPECT_NE(r.error().str().find("einsum:1:8:"), std::string::npos)
        << r.error().str();
}

// ---------------------------------------------------------------------
// Round trip: every committed plan einsum parses verbatim.
// ---------------------------------------------------------------------

TEST(FrontendRoundTrip, CommittedPlanEinsumsParse)
{
    Inputs in;
    const std::vector<plan::PlanSpec> specs = {
        plan::spmvPlan(in.a, in.dv, in.x, 8, 0, in.a.rows(),
                       plan::Variant::P0),
        plan::spmvPlan(in.a, in.dv, in.x, 8, 0, in.a.rows(),
                       plan::Variant::P1),
        plan::pagerankPlan(in.a, in.dv, in.x, 0.85, 8, 0, in.a.rows()),
        plan::spmspmPlan(in.a, in.at, 8, 0, in.a.rows()),
        plan::spkaddPlan(in.parts, 0, in.a.rows()),
        plan::tricountPlan(in.lower, 0, in.lower.rows()),
        plan::mttkrpPlan(in.coo, in.bm, in.cm, in.z, 8, 0,
                         in.coo.nnz(), plan::Variant::P1),
        plan::mttkrpPlan(in.coo, in.bm, in.cm, in.z, 8, 0,
                         in.coo.nnz(), plan::Variant::P2),
    };
    for (const plan::PlanSpec &ps : specs) {
        SCOPED_TRACE(ps.name);
        const auto ast = plan::frontend::parseEinsum(ps.einsum);
        EXPECT_TRUE(ast.ok())
            << ps.einsum << "\n"
            << (ast.ok() ? "" : ast.error().str());
    }
    for (const char *e :
         {workloads::SddmmWorkload::kEinsum,
          workloads::SpmmWorkload::kEinsum,
          workloads::SpmmScatterWorkload::kEinsum}) {
        SCOPED_TRACE(e);
        EXPECT_TRUE(plan::frontend::parseEinsum(e).ok());
    }
}

// ---------------------------------------------------------------------
// Iteration-graph classification per archetype.
// ---------------------------------------------------------------------

struct GraphCase
{
    const char *expr;
    plan::PlanKind kind;
    std::vector<std::pair<const char *, MergeClass>> nodes;
};

TEST(FrontendGraph, ClassifiesMergePoints)
{
    const GraphCase cases[] = {
        {"Z(i) = A(i,j; csr) * B(j; dense)",
         plan::PlanKind::RowReduce,
         {{"i", MergeClass::Dense}, {"j", MergeClass::Led}}},
        {"Z(i,j; dcsr) = sum_k A^k(i,j; dcsr)",
         plan::PlanKind::KWayMerge,
         {{"i", MergeClass::Disjunctive},
          {"j", MergeClass::Disjunctive}}},
        {"c = L(i,k; csr) * L(k,j; csr) * L(i,j; csr)",
         plan::PlanKind::Intersect,
         {{"i", MergeClass::Dense},
          {"k", MergeClass::Led},
          {"j", MergeClass::Conjunctive}}},
        {"Z(i,j; csr) = A(i,k; csr) * B(k,j; csr)",
         plan::PlanKind::WorkspaceSpGEMM,
         {{"i", MergeClass::Dense},
          {"k", MergeClass::Led},
          {"j", MergeClass::Led}}},
        {"Z(i,j) = A(i,k,l; coo) * B(k,j; dense) * C(l,j; dense)",
         plan::PlanKind::CooRankFma,
         {{"p", MergeClass::Led}, {"j", MergeClass::Dense}}},
        {"Z(i,j; csr) = A(i,j; csr) * B(i,k; dense) * C(j,k; dense)",
         plan::PlanKind::Sddmm,
         {{"i", MergeClass::Dense},
          {"j", MergeClass::Led},
          {"k", MergeClass::Dense}}},
        {"Z(i,j; csr) = A(i,k; csr) * B(k,j; dense)",
         plan::PlanKind::SpmmWorkspace,
         {{"i", MergeClass::Dense},
          {"k", MergeClass::Led},
          {"j", MergeClass::Dense}}},
        {"Z(m(i), j) = A(i,k; csr) * B(k,j; dense)",
         plan::PlanKind::SpmmScatter,
         {{"i", MergeClass::Dense},
          {"k", MergeClass::Led},
          {"j", MergeClass::Dense}}},
    };
    for (const GraphCase &c : cases) {
        SCOPED_TRACE(c.expr);
        const auto ast = plan::frontend::parseEinsum(c.expr);
        ASSERT_TRUE(ast.ok()) << ast.error().str();
        const auto g = plan::frontend::buildIterationGraph(*ast);
        ASSERT_TRUE(g.ok()) << g.error().str();
        EXPECT_EQ(static_cast<int>(g->kind),
                  static_cast<int>(c.kind));
        ASSERT_EQ(g->order.size(), c.nodes.size());
        for (size_t i = 0; i < c.nodes.size(); ++i) {
            EXPECT_EQ(g->order[i].index, c.nodes[i].first)
                << "level " << i;
            EXPECT_EQ(
                static_cast<int>(g->order[i].merge),
                static_cast<int>(c.nodes[i].second))
                << "level " << i << " ("
                << plan::frontend::mergeClassName(g->order[i].merge)
                << ")";
        }
    }
    // The COO position loop fuses all three tensor subscripts.
    const auto ast = plan::frontend::parseEinsum(
        "Z(i,j) = A(i,k,l; coo) * B(k,j; dense) * C(l,j; dense)");
    ASSERT_TRUE(ast.ok());
    const auto g = plan::frontend::buildIterationGraph(*ast);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->order[0].fused,
              (std::vector<std::string>{"i", "k", "l"}));
}

// ---------------------------------------------------------------------
// Compile-from-einsum vs hand-authored: deep structural equality.
// ---------------------------------------------------------------------

void
expectSameStream(const plan::StreamSpec &h, const plan::StreamSpec &c,
                 const std::string &where)
{
    EXPECT_EQ(h.name, c.name) << where;
    EXPECT_EQ(static_cast<int>(h.kind), static_cast<int>(c.kind))
        << where << "/" << h.name;
    EXPECT_EQ(static_cast<int>(h.elem), static_cast<int>(c.elem))
        << where << "/" << h.name;
    EXPECT_EQ(h.base, c.base) << where << "/" << h.name;
    EXPECT_EQ(h.linA, c.linA) << where << "/" << h.name;
    EXPECT_EQ(h.linB, c.linB) << where << "/" << h.name;
    EXPECT_EQ(h.parent, c.parent) << where << "/" << h.name;
    EXPECT_EQ(h.parent2, c.parent2) << where << "/" << h.name;
    EXPECT_EQ(h.fwdOf, c.fwdOf) << where << "/" << h.name;
}

/** Field-for-field PlanSpec equality (hand spec vs compiled spec). */
void
expectSameSpec(const plan::PlanSpec &h, const plan::PlanSpec &c)
{
    EXPECT_EQ(h.name, c.name);
    EXPECT_EQ(h.einsum, c.einsum);
    EXPECT_EQ(h.formats, c.formats);
    EXPECT_EQ(static_cast<int>(h.kind), static_cast<int>(c.kind));
    EXPECT_EQ(static_cast<int>(h.variant),
              static_cast<int>(c.variant));
    EXPECT_EQ(h.lanes, c.lanes);
    EXPECT_EQ(h.beg, c.beg);
    EXPECT_EQ(h.end, c.end);

    ASSERT_EQ(h.operands.size(), c.operands.size());
    for (size_t i = 0; i < h.operands.size(); ++i) {
        EXPECT_EQ(h.operands[i].name, c.operands[i].name);
        EXPECT_EQ(h.operands[i].indices, c.operands[i].indices);
        ASSERT_EQ(h.operands[i].levels.size(),
                  c.operands[i].levels.size());
        for (size_t l = 0; l < h.operands[i].levels.size(); ++l) {
            EXPECT_EQ(static_cast<int>(h.operands[i].levels[l]),
                      static_cast<int>(c.operands[i].levels[l]));
        }
    }

    ASSERT_EQ(h.layers.size(), c.layers.size());
    for (size_t l = 0; l < h.layers.size(); ++l) {
        const plan::LayerSpec &hl = h.layers[l];
        const plan::LayerSpec &cl = c.layers[l];
        const std::string where = "layer " + std::to_string(l);
        EXPECT_EQ(hl.index, cl.index) << where;
        EXPECT_EQ(static_cast<int>(hl.mode),
                  static_cast<int>(cl.mode))
            << where;
        ASSERT_EQ(hl.tus.size(), cl.tus.size()) << where;
        for (size_t t = 0; t < hl.tus.size(); ++t) {
            const plan::TuSpec &ht = hl.tus[t];
            const plan::TuSpec &ct = cl.tus[t];
            const std::string wtu =
                where + " tu " + std::to_string(t);
            EXPECT_EQ(static_cast<int>(ht.kind),
                      static_cast<int>(ct.kind))
                << wtu;
            EXPECT_EQ(ht.beg, ct.beg) << wtu;
            EXPECT_EQ(ht.end, ct.end) << wtu;
            EXPECT_EQ(ht.begStream, ct.begStream) << wtu;
            EXPECT_EQ(ht.endStream, ct.endStream) << wtu;
            EXPECT_EQ(ht.size, ct.size) << wtu;
            EXPECT_EQ(ht.offset, ct.offset) << wtu;
            EXPECT_EQ(ht.stride, ct.stride) << wtu;
            EXPECT_EQ(ht.mergeKey, ct.mergeKey) << wtu;
            EXPECT_EQ(ht.expectedFiberLen, ct.expectedFiberLen)
                << wtu;
            ASSERT_EQ(ht.streams.size(), ct.streams.size()) << wtu;
            for (size_t s = 0; s < ht.streams.size(); ++s)
                expectSameStream(ht.streams[s], ct.streams[s], wtu);
        }
    }

    ASSERT_EQ(h.groupStreams.size(), c.groupStreams.size());
    for (size_t g = 0; g < h.groupStreams.size(); ++g) {
        EXPECT_EQ(h.groupStreams[g].name, c.groupStreams[g].name);
        EXPECT_EQ(h.groupStreams[g].layer, c.groupStreams[g].layer);
        EXPECT_EQ(h.groupStreams[g].stream, c.groupStreams[g].stream);
        EXPECT_EQ(static_cast<int>(h.groupStreams[g].elem),
                  static_cast<int>(c.groupStreams[g].elem));
    }

    ASSERT_EQ(h.callbacks.size(), c.callbacks.size());
    for (size_t k = 0; k < h.callbacks.size(); ++k) {
        EXPECT_EQ(h.callbacks[k].name, c.callbacks[k].name);
        EXPECT_EQ(h.callbacks[k].id, c.callbacks[k].id);
        EXPECT_EQ(h.callbacks[k].layer, c.callbacks[k].layer);
        EXPECT_EQ(static_cast<int>(h.callbacks[k].event),
                  static_cast<int>(c.callbacks[k].event));
        EXPECT_EQ(h.callbacks[k].operands, c.callbacks[k].operands);
        EXPECT_EQ(static_cast<int>(h.callbacks[k].compute),
                  static_cast<int>(c.callbacks[k].compute));
    }

    EXPECT_EQ(h.trace.pcs, c.trace.pcs);
    EXPECT_EQ(h.trace.headerIop, c.trace.headerIop);

    EXPECT_EQ(h.bind.a, c.bind.a);
    EXPECT_EQ(h.bind.b, c.bind.b);
    EXPECT_EQ(h.bind.x, c.bind.x);
    EXPECT_EQ(h.bind.out, c.bind.out);
    EXPECT_EQ(h.bind.parts, c.bind.parts);
    EXPECT_EQ(h.bind.t, c.bind.t);
    EXPECT_EQ(h.bind.bm, c.bind.bm);
    EXPECT_EQ(h.bind.cm, c.bind.cm);
    EXPECT_EQ(h.bind.z, c.bind.z);
    EXPECT_EQ(h.bind.map, c.bind.map);
    EXPECT_EQ(h.bind.rowUpdate, c.bind.rowUpdate);
    EXPECT_EQ(h.bind.scale, c.bind.scale);
    EXPECT_EQ(h.bind.bias, c.bind.bias);
}

/** Records identical modulo a consistent callback-id bijection. */
void
expectSameRecords(const TmuProgram &hand, const TmuProgram &compiled)
{
    const auto hr = engine::interpretToVector(hand);
    const auto cr = engine::interpretToVector(compiled);
    ASSERT_EQ(hr.size(), cr.size());
    ASSERT_GT(hr.size(), 0u) << "degenerate comparison";
    std::map<int, int> fwd, rev;
    for (size_t i = 0; i < hr.size(); ++i) {
        const OutqRecord &x = hr[i];
        const OutqRecord &y = cr[i];
        ASSERT_EQ(x.layer, y.layer) << "record " << i;
        ASSERT_EQ(static_cast<int>(x.event),
                  static_cast<int>(y.event))
            << "record " << i;
        ASSERT_TRUE(x.mask == y.mask) << "record " << i;
        ASSERT_EQ(x.operands, y.operands) << "record " << i;
        const auto f = fwd.emplace(x.callbackId, y.callbackId);
        const auto r = rev.emplace(y.callbackId, x.callbackId);
        ASSERT_EQ(f.first->second, y.callbackId) << "record " << i;
        ASSERT_EQ(r.first->second, x.callbackId) << "record " << i;
    }
}

void
expectEquivalent(const plan::PlanSpec &hand, const plan::PlanSpec &c)
{
    expectSameSpec(hand, c);
    EXPECT_EQ(plan::lowerProgram(hand).summary(),
              plan::lowerProgram(c).summary());
    expectSameRecords(plan::lowerProgram(hand), plan::lowerProgram(c));
}

TEST(FrontendEquivalence, AllLegacyKernelsCompileIdentically)
{
    Inputs in;
    const Index rows = in.a.rows();

    {
        SCOPED_TRACE("SpMV P1");
        EinsumBindings fb;
        fb.csr["A"] = &in.a;
        fb.vec["B"] = &in.dv;
        fb.outVec = &in.x;
        CompileOptions fo;
        fo.lanes = 8;
        fo.end = rows;
        expectEquivalent(
            plan::spmvPlan(in.a, in.dv, in.x, 8, 0, rows,
                           plan::Variant::P1),
            plan::frontend::compileEinsum(
                "Z(i) = A(i,j; csr) * B(j; dense)", fb, fo)
                .valueOrFatal());
    }
    {
        SCOPED_TRACE("SpMV P0");
        EinsumBindings fb;
        fb.csr["A"] = &in.a;
        fb.vec["B"] = &in.dv;
        fb.outVec = &in.x;
        CompileOptions fo;
        fo.lanes = 8;
        fo.end = rows;
        fo.variant = plan::Variant::P0;
        expectEquivalent(
            plan::spmvPlan(in.a, in.dv, in.x, 8, 0, rows,
                           plan::Variant::P0),
            plan::frontend::compileEinsum(
                "Z(i) = A(i,j; csr) * B(j; dense)", fb, fo)
                .valueOrFatal());
    }
    {
        SCOPED_TRACE("PageRank");
        EinsumBindings fb;
        fb.csr["A"] = &in.a;
        fb.vec["X"] = &in.dv;
        fb.outVec = &in.x;
        fb.scalars["alpha"] = 0.85;
        fb.scalars["beta"] =
            (1.0 - 0.85) / static_cast<double>(rows);
        CompileOptions fo;
        fo.lanes = 8;
        fo.end = rows;
        expectEquivalent(
            plan::pagerankPlan(in.a, in.dv, in.x, 0.85, 8, 0, rows),
            plan::frontend::compileEinsum(
                "Z(i) = beta + alpha * A(i,j; csr) * X(j; dense)", fb,
                fo)
                .valueOrFatal());
    }
    {
        SCOPED_TRACE("SpMSpM P2");
        EinsumBindings fb;
        fb.csr["A"] = &in.a;
        fb.csr["B"] = &in.at;
        CompileOptions fo;
        fo.lanes = 8;
        fo.end = rows;
        expectEquivalent(
            plan::spmspmPlan(in.a, in.at, 8, 0, rows),
            plan::frontend::compileEinsum(
                "Z(i,j; csr) = A(i,k; csr) * B(k,j; csr)", fb, fo)
                .valueOrFatal());
    }
    {
        SCOPED_TRACE("SpKAdd");
        EinsumBindings fb;
        fb.ensembles["A^k"] = &in.parts;
        CompileOptions fo;
        fo.end = in.a.rows();
        expectEquivalent(
            plan::spkaddPlan(in.parts, 0, in.a.rows()),
            plan::frontend::compileEinsum(
                "Z(i,j; dcsr) = sum_k A^k(i,j; dcsr)", fb, fo)
                .valueOrFatal());
    }
    {
        SCOPED_TRACE("TriangleCount");
        EinsumBindings fb;
        fb.csr["L"] = &in.lower;
        CompileOptions fo;
        fo.end = in.lower.rows();
        expectEquivalent(
            plan::tricountPlan(in.lower, 0, in.lower.rows()),
            plan::frontend::compileEinsum(
                "c = L(i,k; csr) * L(k,j; csr) * L(i,j; csr)", fb, fo)
                .valueOrFatal());
    }
    for (const plan::Variant v :
         {plan::Variant::P1, plan::Variant::P2}) {
        SCOPED_TRACE(v == plan::Variant::P1 ? "MTTKRP P1"
                                            : "MTTKRP P2");
        EinsumBindings fb;
        fb.coo["A"] = &in.coo;
        fb.mat["B"] = &in.bm;
        fb.mat["C"] = &in.cm;
        fb.outMat = &in.z;
        CompileOptions fo;
        fo.lanes = 8;
        fo.end = in.coo.nnz();
        fo.variant = v;
        expectEquivalent(
            plan::mttkrpPlan(in.coo, in.bm, in.cm, in.z, 8, 0,
                             in.coo.nnz(), v),
            plan::frontend::compileEinsum(
                "Z(i,j) = A(i,k,l; coo) * B(k,j; dense) * "
                "C(l,j; dense)",
                fb, fo)
                .valueOrFatal());
    }
}

TEST(FrontendEquivalence, DefaultEndCoversFullDomain)
{
    // Omitting CompileOptions.end must default to the driving
    // operand's full outer domain (rows / nnz / ensemble rows).
    Inputs in;
    EinsumBindings fb;
    fb.csr["A"] = &in.a;
    fb.vec["B"] = &in.dv;
    fb.outVec = &in.x;
    const plan::PlanSpec ps =
        plan::frontend::compileEinsum(
            "Z(i) = A(i,j; csr) * B(j; dense)", fb, CompileOptions{})
            .valueOrFatal();
    EXPECT_EQ(ps.beg, 0);
    EXPECT_EQ(ps.end, in.a.rows());

    EinsumBindings kb;
    kb.coo["A"] = &in.coo;
    kb.mat["B"] = &in.bm;
    kb.mat["C"] = &in.cm;
    kb.outMat = &in.z;
    const plan::PlanSpec mp =
        plan::frontend::compileEinsum(
            "Z(i,j) = A(i,k,l; coo) * B(k,j; dense) * C(l,j; dense)",
            kb, CompileOptions{})
            .valueOrFatal();
    EXPECT_EQ(mp.end, in.coo.nnz());
}

// ---------------------------------------------------------------------
// Cycle identity: hand spec vs compiled spec, event and dense models.
// ---------------------------------------------------------------------

/** Run a per-core plan factory under Mode::Tmu; return sim.cycles. */
template <typename MakePlan>
std::uint64_t
runPlanCycles(const workloads::RunConfig &cfg, Index domain,
              MakePlan makePlan, std::vector<plan::PlanState> &st)
{
    workloads::RunHarness h(cfg);
    const int cores = cfg.system.cores;
    st.assign(static_cast<size_t>(cores), {});
    std::vector<plan::PlanSpec> ps;
    ps.reserve(static_cast<size_t>(cores));
    for (int c = 0; c < cores; ++c) {
        const auto [beg, end] =
            workloads::makePartition(workloads::PartitionKind::Rows,
                                     domain, nullptr, cores)
                .range(c);
        ps.push_back(makePlan(beg, end));
        h.addPlan(c, ps[c], st[static_cast<size_t>(c)]);
    }
    return h.finish().sim.cycles;
}

TEST(FrontendCycles, SpmvIdenticalInBothSchedulerModels)
{
    Inputs in;
    const Index rows = in.a.rows();
    const DenseVector ref = kernels::spmvRef(in.a, in.dv);

    for (const bool dense : {false, true}) {
        SCOPED_TRACE(dense ? "dense scheduler" : "event scheduler");
        workloads::RunConfig cfg;
        cfg.mode = workloads::Mode::Tmu;
        cfg.system.cores = 2;
        cfg.system.schedDense = dense;

        std::vector<plan::PlanState> st;
        const std::uint64_t handCycles = runPlanCycles(
            cfg, rows,
            [&](Index beg, Index end) {
                return plan::spmvPlan(in.a, in.dv, in.x,
                                      cfg.programLanes, beg, end,
                                      plan::Variant::P1);
            },
            st);
        for (Index i = 0; i < rows; ++i)
            ASSERT_NEAR(in.x[i], ref[i], 1e-9);
        in.x.fill(0.0);

        EinsumBindings fb;
        fb.csr["A"] = &in.a;
        fb.vec["B"] = &in.dv;
        fb.outVec = &in.x;
        const std::uint64_t compiledCycles = runPlanCycles(
            cfg, rows,
            [&](Index beg, Index end) {
                CompileOptions fo;
                fo.lanes = cfg.programLanes;
                fo.beg = beg;
                fo.end = end;
                return plan::frontend::compileEinsum(
                           "Z(i) = A(i,j; csr) * B(j; dense)", fb, fo)
                    .valueOrFatal();
            },
            st);
        for (Index i = 0; i < rows; ++i)
            ASSERT_NEAR(in.x[i], ref[i], 1e-9);
        in.x.fill(0.0);

        EXPECT_EQ(handCycles, compiledCycles);
        EXPECT_GT(compiledCycles, 0u);
    }
}

TEST(FrontendCycles, SpkaddIdenticalInBothSchedulerModels)
{
    Inputs in;
    const Index rows = in.parts[0].rows();

    for (const bool dense : {false, true}) {
        SCOPED_TRACE(dense ? "dense scheduler" : "event scheduler");
        workloads::RunConfig cfg;
        cfg.mode = workloads::Mode::Tmu;
        cfg.system.cores = 2;
        cfg.system.schedDense = dense;

        std::vector<plan::PlanState> st;
        const std::uint64_t handCycles = runPlanCycles(
            cfg, rows,
            [&](Index beg, Index end) {
                return plan::spkaddPlan(in.parts, beg, end);
            },
            st);
        const std::uint64_t compiledCycles = runPlanCycles(
            cfg, rows,
            [&](Index beg, Index end) {
                EinsumBindings fb;
                fb.ensembles["A^k"] = &in.parts;
                CompileOptions fo;
                fo.beg = beg;
                fo.end = end;
                return plan::frontend::compileEinsum(
                           "Z(i,j; dcsr) = sum_k A^k(i,j; dcsr)", fb,
                           fo)
                    .valueOrFatal();
            },
            st);
        EXPECT_EQ(handCycles, compiledCycles);
        EXPECT_GT(compiledCycles, 0u);
    }
}

// ---------------------------------------------------------------------
// Frontend-only workloads across the fuzzer shape classes.
// ---------------------------------------------------------------------

bool
near(Value got, Value want)
{
    return std::abs(got - want) <= 1e-9 * (1.0 + std::abs(want));
}

/** Random dense factor with a deterministic per-case seed. */
DenseMatrix
randomFactor(Index rows, Index cols, std::uint64_t seed)
{
    DenseMatrix m(rows, cols);
    Rng rng(seed);
    for (Index i = 0; i < rows; ++i)
        for (Index j = 0; j < cols; ++j)
            m(i, j) = rng.nextValue(-1.0, 1.0);
    return m;
}

TEST(FrontendShapes, SddmmReferenceAndTraceAgree)
{
    const Index rk = 4;
    for (const testing::ShapeClass sc : testing::kAllShapeClasses) {
        SCOPED_TRACE(testing::shapeClassName(sc));
        const CsrMatrix a =
            tensor::cooToCsr(testing::sampleMatrix(sc, 11));
        const DenseMatrix b = randomFactor(a.rows(), rk, 13);
        const DenseMatrix c = randomFactor(a.cols(), rk, 17);

        EinsumBindings fb;
        fb.csr["A"] = &a;
        fb.mat["B"] = &b;
        fb.mat["C"] = &c;
        const plan::PlanSpec ps =
            plan::frontend::compileEinsum(
                workloads::SddmmWorkload::kEinsum, fb,
                CompileOptions{})
                .valueOrFatal();

        const plan::ReferenceResult ref = plan::lowerReference(ps);
        std::vector<Index> ti, trn;
        std::vector<Value> tv;
        {
            sim::Trace t = plan::lowerTrace(
                ps, {&ti, &tv, &trn, nullptr}, sim::SimdConfig{});
            while (t.next()) {
            }
        }
        EXPECT_EQ(ref.idxs, ti);
        EXPECT_EQ(ref.rowNnz, trn);
        ASSERT_EQ(ref.vals.size(), tv.size());

        // Host-loop want: the sampled pattern is A's own.
        ASSERT_EQ(ref.idxs.size(), static_cast<size_t>(a.nnz()));
        size_t q = 0;
        for (Index i = 0; i < a.rows(); ++i) {
            ASSERT_EQ(ref.rowNnz[static_cast<size_t>(i)],
                      a.rowNnz(i));
            for (Index p = a.rowBegin(i); p < a.rowEnd(i); ++p, ++q) {
                const Index j = a.idxs()[static_cast<size_t>(p)];
                Value dot = 0.0;
                for (Index k = 0; k < rk; ++k)
                    dot += b(i, k) * c(j, k);
                const Value want =
                    a.vals()[static_cast<size_t>(p)] * dot;
                ASSERT_EQ(ref.idxs[q], j);
                ASSERT_TRUE(near(ref.vals[q], want))
                    << ref.vals[q] << " vs " << want;
                ASSERT_TRUE(near(tv[q], want));
            }
        }
    }
}

TEST(FrontendShapes, SpmmReferenceAndTraceAgree)
{
    const Index nc = 3;
    for (const testing::ShapeClass sc : testing::kAllShapeClasses) {
        SCOPED_TRACE(testing::shapeClassName(sc));
        const CsrMatrix a =
            tensor::cooToCsr(testing::sampleMatrix(sc, 23));
        const DenseMatrix b = randomFactor(a.cols(), nc, 29);

        EinsumBindings fb;
        fb.csr["A"] = &a;
        fb.mat["B"] = &b;
        const plan::PlanSpec ps =
            plan::frontend::compileEinsum(
                workloads::SpmmWorkload::kEinsum, fb,
                CompileOptions{})
                .valueOrFatal();

        const plan::ReferenceResult ref = plan::lowerReference(ps);
        std::vector<Index> ti, trn;
        std::vector<Value> tv;
        {
            sim::Trace t = plan::lowerTrace(
                ps, {&ti, &tv, &trn, nullptr}, sim::SimdConfig{});
            while (t.next()) {
            }
        }
        EXPECT_EQ(ref.idxs, ti);
        EXPECT_EQ(ref.rowNnz, trn);
        ASSERT_EQ(ref.vals.size(), tv.size());

        size_t q = 0;
        for (Index i = 0; i < a.rows(); ++i) {
            const Index want = a.rowNnz(i) > 0 ? nc : 0;
            ASSERT_EQ(ref.rowNnz[static_cast<size_t>(i)], want);
            for (Index j = 0; j < want; ++j, ++q) {
                Value sum = 0.0;
                for (Index p = a.rowBegin(i); p < a.rowEnd(i); ++p) {
                    sum += a.vals()[static_cast<size_t>(p)] *
                           b(a.idxs()[static_cast<size_t>(p)], j);
                }
                ASSERT_EQ(ref.idxs[q], j);
                ASSERT_TRUE(near(ref.vals[q], sum));
                ASSERT_TRUE(near(tv[q], sum));
            }
        }
        ASSERT_EQ(q, ref.idxs.size());
    }
}

TEST(FrontendShapes, SpmmScatterReferenceAndTraceAgree)
{
    const Index nc = 3;
    for (const testing::ShapeClass sc : testing::kAllShapeClasses) {
        SCOPED_TRACE(testing::shapeClassName(sc));
        const CsrMatrix a =
            tensor::cooToCsr(testing::sampleMatrix(sc, 31));
        const DenseMatrix b = randomFactor(a.cols(), nc, 37);
        // Reversal permutation: deterministic and never identity for
        // rows > 1, so a scatter bug cannot hide.
        std::vector<Index> map(static_cast<size_t>(a.rows()));
        for (Index i = 0; i < a.rows(); ++i)
            map[static_cast<size_t>(i)] = a.rows() - 1 - i;

        DenseMatrix want(a.rows(), nc, 0.0);
        for (Index i = 0; i < a.rows(); ++i) {
            const Index zi = map[static_cast<size_t>(i)];
            for (Index p = a.rowBegin(i); p < a.rowEnd(i); ++p) {
                const Index k = a.idxs()[static_cast<size_t>(p)];
                for (Index j = 0; j < nc; ++j) {
                    want(zi, j) +=
                        a.vals()[static_cast<size_t>(p)] * b(k, j);
                }
            }
        }

        EinsumBindings fb;
        fb.csr["A"] = &a;
        fb.mat["B"] = &b;
        fb.maps["m"] = &map;
        DenseMatrix z(a.rows(), nc, 0.0);
        fb.outMat = &z;
        const plan::PlanSpec ps =
            plan::frontend::compileEinsum(
                workloads::SpmmScatterWorkload::kEinsum, fb,
                CompileOptions{})
                .valueOrFatal();

        plan::lowerReference(ps); // accumulates into z
        for (Index i = 0; i < a.rows(); ++i)
            for (Index j = 0; j < nc; ++j)
                ASSERT_TRUE(near(z(i, j), want(i, j)))
                    << "ref (" << i << "," << j << ")";

        for (Index i = 0; i < a.rows(); ++i)
            for (Index j = 0; j < nc; ++j)
                z(i, j) = 0.0;
        {
            sim::Trace t =
                plan::lowerTrace(ps, {}, sim::SimdConfig{});
            while (t.next()) {
            }
        }
        for (Index i = 0; i < a.rows(); ++i)
            for (Index j = 0; j < nc; ++j)
                ASSERT_TRUE(near(z(i, j), want(i, j)))
                    << "trace (" << i << "," << j << ")";
    }
}

// ---------------------------------------------------------------------
// Dump tooling smoke.
// ---------------------------------------------------------------------

TEST(FrontendDump, DescribesCompiledPlan)
{
    const auto text = plan::frontend::dumpEinsum(
        "Z(i) = A(i,j; csr) * B(j; dense)", CompileOptions{});
    ASSERT_TRUE(text.ok()) << text.error().str();
    EXPECT_NE(text->find("plan SpMV P1"), std::string::npos) << *text;
    EXPECT_NE(text->find("einsum  Z(i) = A(i,j; csr) * B(j; dense)"),
              std::string::npos);
    EXPECT_NE(text->find("Dns,Rng | mem | BCast,LockStep"),
              std::string::npos);

    const auto bad = plan::frontend::dumpEinsum(
        "Z(i) = A(i,j", CompileOptions{});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code(), Errc::Truncated);
}

} // namespace
} // namespace tmu
