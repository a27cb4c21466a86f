/**
 * @file
 * Einsum-frontend tests (docs/FRONTEND.md).
 *
 * Pinned invariants:
 *   - negative diagnostics: a table of malformed expressions must fail
 *     with the exact TmuError code, the "einsum:<line>:<col>:" prefix
 *     and the caret under the offending column;
 *   - round trip: every registered workload's einsum parses verbatim
 *     through the grammar it is documented in;
 *   - the iteration graph classifies each archetype's merge points,
 *     and an omitted end covers the driving operand's full domain;
 *   - the frontend-only workloads (SDDMM, SpMM, SpMM-SC) agree with
 *     plain host loops across every fuzzer shape class, reference and
 *     trace legs both.
 *
 * What each compiled kernel marshals and executes is pinned in
 * plan_test (PlanPinned.*).
 */

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "testing/shapes.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "workloads/registry.hpp"
#include "workloads/wl_einsum.hpp"

namespace tmu {
namespace {

using plan::frontend::CompileOptions;
using plan::frontend::EinsumBindings;
using plan::frontend::MergeClass;
using tensor::CsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;

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
    int parsed = 0;
    for (const std::string &name : workloads::registeredWorkloads()) {
        SCOPED_TRACE(name);
        const auto plan = workloads::workloadEinsum(name);
        ASSERT_TRUE(plan.ok());
        if (plan->einsum == nullptr)
            continue;
        const auto ast = plan::frontend::parseEinsum(plan->einsum);
        EXPECT_TRUE(ast.ok())
            << plan->einsum << "\n"
            << (ast.ok() ? "" : ast.error().str());
        ++parsed;
    }
    EXPECT_GT(parsed, 0);
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
// Compile options.
// ---------------------------------------------------------------------

TEST(FrontendEquivalence, DefaultEndCoversFullDomain)
{
    // Omitting CompileOptions.end must default to the driving
    // operand's full outer domain (rows / nnz / ensemble rows).
    const CsrMatrix a = tensor::randomCsr(
        {.rows = 24, .cols = 24, .nnzPerRow = 4, .seed = 3});
    const DenseVector dv(24, 1.0);
    DenseVector x(24);
    EinsumBindings fb;
    fb.csr["A"] = &a;
    fb.vec["B"] = &dv;
    fb.outVec = &x;
    const plan::PlanSpec ps =
        plan::frontend::compileEinsum(
            "Z(i) = A(i,j; csr) * B(j; dense)", fb, CompileOptions{})
            .valueOrFatal();
    EXPECT_EQ(ps.beg, 0);
    EXPECT_EQ(ps.end, a.rows());

    const tensor::CooTensor coo =
        tensor::randomCooTensor({16, 24, 24}, 150, 0.0, 9);
    const DenseMatrix bm(24, 8, 1.0);
    const DenseMatrix cm(24, 8, 1.0);
    DenseMatrix z(16, 8, 0.0);
    EinsumBindings kb;
    kb.coo["A"] = &coo;
    kb.mat["B"] = &bm;
    kb.mat["C"] = &cm;
    kb.outMat = &z;
    const plan::PlanSpec mp =
        plan::frontend::compileEinsum(
            "Z(i,j) = A(i,k,l; coo) * B(k,j; dense) * C(l,j; dense)",
            kb, CompileOptions{})
            .valueOrFatal();
    EXPECT_EQ(mp.end, coo.nnz());
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
