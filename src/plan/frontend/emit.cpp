/**
 * @file
 * Plan emitter: classified einsum -> validated PlanSpec, one emitter
 * per archetype: the layers, TUs, streams, group streams, expected
 * fiber lengths, trace PC slots and callback registration order of
 * each kernel the workloads and Table 4 run. PlanPinned.* in
 * tests/plan_test.cpp pins the record and trace streams they lower to,
 * and EveryWorkload/PinnedCycles.* in tests/workloads_test.cpp the
 * cycles of the workloads that run them.
 */

#include <algorithm>
#include <cctype>
#include <map>

#include "common/log.hpp"
#include "plan/frontend/analyze.hpp"
#include "plan/frontend/diag.hpp"

namespace tmu::plan::frontend {

using engine::CallbackEvent;
using engine::ElemType;
using engine::GroupMode;
using engine::StreamKind;
using engine::TraversalKind;
using tensor::CooTensor;
using tensor::CsrMatrix;
using tensor::DcsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;

namespace {

StreamSpec
mem(std::string name, const void *base, ElemType elem,
    std::string parent = {}, std::string parent2 = {})
{
    StreamSpec s;
    s.name = std::move(name);
    s.kind = StreamKind::Mem;
    s.elem = elem;
    s.base = base;
    s.parent = std::move(parent);
    s.parent2 = std::move(parent2);
    return s;
}

StreamSpec
lin(std::string name, double a, double b, std::string parent = {},
    std::string parent2 = {})
{
    StreamSpec s;
    s.name = std::move(name);
    s.kind = StreamKind::Lin;
    s.linA = a;
    s.linB = b;
    s.parent = std::move(parent);
    s.parent2 = std::move(parent2);
    return s;
}

StreamSpec
ldr(std::string name, const void *base, std::string parent)
{
    StreamSpec s;
    s.name = std::move(name);
    s.kind = StreamKind::Ldr;
    s.base = base;
    s.parent = std::move(parent);
    return s;
}

StreamSpec
fwd(std::string name, std::string source)
{
    StreamSpec s;
    s.name = std::move(name);
    s.kind = StreamKind::Fwd;
    s.fwdOf = std::move(source);
    return s;
}

TuSpec
dns(Index beg, Index end, Index stride = 1)
{
    TuSpec t;
    t.kind = TraversalKind::Dense;
    t.beg = beg;
    t.end = end;
    t.stride = stride;
    return t;
}

TuSpec
rng(std::string begStream, std::string endStream, Index offset = 0,
    Index stride = 1)
{
    TuSpec t;
    t.kind = TraversalKind::Range;
    t.begStream = std::move(begStream);
    t.endStream = std::move(endStream);
    t.offset = offset;
    t.stride = stride;
    return t;
}

TuSpec
idx(std::string begStream, Index size, Index offset = 0,
    Index stride = 1)
{
    TuSpec t;
    t.kind = TraversalKind::Index;
    t.begStream = std::move(begStream);
    t.size = size;
    t.offset = offset;
    t.stride = stride;
    return t;
}

TmuError
diag(const Ast &ast, Errc code, SourcePos pos, const std::string &msg)
{
    return diagAt(code, ast.text, pos.line, pos.col, msg);
}

/** Typed binding lookup with a caret diagnostic on a miss. */
template <typename T>
Expected<const T *>
lookup(const std::map<std::string, const T *> &table,
       const AstTensor &op, const Ast &ast, const char *what)
{
    auto it = table.find(op.name);
    if (it == table.end() || !it->second) {
        return diag(ast, Errc::ConfigError, op.pos,
                    std::string("operand '") + op.name +
                        "' has no bound " + what);
    }
    return it->second;
}

/** Per-level formats of one operand from its annotation. */
std::vector<LevelFormat>
levelsOf(const AstTensor &t)
{
    if (t.format == "csr")
        return {LevelFormat::Dense, LevelFormat::Compressed};
    if (t.format == "dcsr")
        return {LevelFormat::Compressed, LevelFormat::Compressed};
    if (t.format == "coo") {
        return std::vector<LevelFormat>(t.indices.size(),
                                        LevelFormat::Singleton);
    }
    return std::vector<LevelFormat>(t.indices.size(),
                                    LevelFormat::Dense);
}

std::string
subs(const AstTensor &t)
{
    std::string s;
    for (const AstIndex &i : t.indices)
        s += i.name;
    return s;
}

std::string
upper(std::string f)
{
    std::transform(f.begin(), f.end(), f.begin(), [](unsigned char c) {
        return static_cast<char>(std::toupper(c));
    });
    return f;
}

/**
 * The Table-4 formats column: non-dense operands (and the output, if
 * annotated) grouped by format in appearance order — "A,B,Z=CSR".
 */
std::string
formatsColumn(const Ast &ast)
{
    std::vector<std::pair<std::string, std::string>> entries;
    auto add = [&](const AstTensor &t) {
        if (t.format.empty() || t.format == "dense")
            return;
        for (const auto &e : entries) {
            if (e.first == t.name)
                return;
        }
        entries.emplace_back(t.name, upper(t.format));
    };
    for (const AstTerm &term : ast.terms) {
        for (const AstTensor &f : term.factors)
            add(f);
    }
    add(ast.output);

    std::string out;
    std::vector<char> used(entries.size(), 0);
    for (size_t i = 0; i < entries.size(); ++i) {
        if (used[i])
            continue;
        std::string group = entries[i].first;
        for (size_t j = i + 1; j < entries.size(); ++j) {
            if (!used[j] && entries[j].second == entries[i].second) {
                used[j] = 1;
                group += "," + entries[j].first;
            }
        }
        if (!out.empty())
            out += " ";
        out += group + "=" + entries[i].second;
    }
    return out;
}

/** Operand metadata: tensor factors deduped by name, output omitted. */
std::vector<OperandSpec>
operandSpecs(const std::vector<const AstTensor *> &factors)
{
    std::vector<OperandSpec> ops;
    for (const AstTensor *f : factors) {
        bool dup = false;
        for (OperandSpec &o : ops) {
            if (o.name == f->name) {
                // Repeated factor (TriangleCount): keep the last
                // occurrence's subscripts.
                o.indices = subs(*f);
                dup = true;
            }
        }
        if (!dup)
            ops.push_back({f->name, subs(*f), levelsOf(*f)});
    }
    return ops;
}

std::vector<const AstTensor *>
tensorFactors(const Ast &ast)
{
    std::vector<const AstTensor *> fs;
    for (const AstTerm &term : ast.terms) {
        for (const AstTensor &f : term.factors) {
            if (!f.scalarSymbol)
                fs.push_back(&f);
        }
    }
    return fs;
}

/** Shared skeleton: metadata + partition bounds common to all kinds. */
PlanSpec
skeleton(const Ast &ast, const Analysis &an,
         const CompileOptions &opt, Index autoEnd)
{
    PlanSpec p;
    p.einsum = ast.text;
    p.formats = formatsColumn(ast);
    p.kind = an.graph.kind;
    p.variant = opt.variant;
    p.lanes = opt.lanes;
    p.beg = opt.beg;
    p.end = opt.end == kInvalidIndex ? autoEnd : opt.end;
    p.operands = operandSpecs(tensorFactors(ast));
    return p;
}

PlanSpec
emitRowReduce(const Ast &ast, const Analysis &an, const CsrMatrix &a,
              const DenseVector &b, const CompileOptions &opt,
              PlanSpec p)
{
    const std::string li = an.graph.order[0].index;
    const std::string lj = an.graph.order[1].index;
    const int lanes = p.lanes;
    const Index beg = p.beg, end = p.end;

    if (p.variant == Variant::P1) {
        LayerSpec rows;
        rows.index = li;
        rows.mode = GroupMode::BCast;
        TuSpec rowsTu = dns(beg, end);
        rowsTu.streams = {
            mem("row_ptbs", a.ptrs().data(), ElemType::I64),
            mem("row_ptes", a.ptrs().data() + 1, ElemType::I64),
        };
        rowsTu.expectedFiberLen = std::max<Index>(1, end - beg);
        rows.tus.push_back(std::move(rowsTu));
        p.layers.push_back(std::move(rows));

        LayerSpec cols;
        cols.index = lj;
        cols.mode = GroupMode::LockStep;
        for (int r = 0; r < lanes; ++r) {
            TuSpec colsTu = rng("row_ptbs", "row_ptes", r, lanes);
            colsTu.streams = {
                mem("col_idxs", a.idxs().data(), ElemType::I64),
                mem("nnz_vals", a.vals().data(), ElemType::F64),
                mem("vec_vals", b.data(), ElemType::F64, "col_idxs"),
            };
            colsTu.expectedFiberLen = std::max<Index>(
                2, a.nnz() / std::max<Index>(1, a.rows() * lanes));
            cols.tus.push_back(std::move(colsTu));
        }
        p.layers.push_back(std::move(cols));

        p.groupStreams = {
            {"nnz", 1, "nnz_vals", ElemType::F64},
            {"vec", 1, "vec_vals", ElemType::F64},
        };
        p.addCallback("ri", 1, CallbackEvent::GroupIte, {"nnz", "vec"},
                      ComputeKind::DotAccumulate);
        p.addCallback("re", 1, CallbackEvent::GroupEnd, {},
                      ComputeKind::RowStore);
    } else {
        // P0: each lane owns every lanes-th row end-to-end.
        LayerSpec rows;
        rows.index = li;
        rows.mode = GroupMode::LockStep;
        LayerSpec cols;
        cols.index = lj;
        cols.mode = GroupMode::LockStep;
        for (int r = 0; r < lanes; ++r) {
            TuSpec rowsTu = dns(beg + r, end, lanes);
            rowsTu.streams = {
                mem("row_ptbs", a.ptrs().data(), ElemType::I64),
                mem("row_ptes", a.ptrs().data() + 1, ElemType::I64),
            };
            rows.tus.push_back(std::move(rowsTu));

            TuSpec colsTu = rng("row_ptbs", "row_ptes");
            colsTu.streams = {
                mem("col_idxs", a.idxs().data(), ElemType::I64),
                mem("nnz_vals", a.vals().data(), ElemType::F64),
                mem("vec_vals", b.data(), ElemType::F64, "col_idxs"),
            };
            cols.tus.push_back(std::move(colsTu));
        }
        p.layers.push_back(std::move(rows));
        p.layers.push_back(std::move(cols));

        p.groupStreams = {
            {"rows", 0, kIteStream, ElemType::I64},
            {"nnz", 1, "nnz_vals", ElemType::F64},
            {"vec", 1, "vec_vals", ElemType::F64},
        };
        p.addCallback("row", 0, CallbackEvent::GroupIte,
                      {"rows", kMskStream}, ComputeKind::MergeRowLatch);
        p.addCallback("ri", 1, CallbackEvent::GroupIte,
                      {"nnz", "vec", kMskStream},
                      ComputeKind::DotAccumulate);
        p.addCallback("re", 1, CallbackEvent::GroupEnd, {kMskStream},
                      ComputeKind::RowStore);
    }

    if (an.graph.affine) {
        p.name = "PageRank";
        p.bind.rowUpdate = true;
        p.trace.pcs = {50, 51};
        p.trace.headerIop = false;
    } else {
        p.name = p.variant == Variant::P0 ? "SpMV P0" : "SpMV P1";
        p.trace.pcs = {1, 2};
        p.trace.headerIop = true;
    }
    (void)ast;
    (void)opt;
    return p;
}

PlanSpec
emitWorkspaceSpgemm(const Analysis &an, const CsrMatrix &a,
                    const CsrMatrix &b, PlanSpec p)
{
    p.name = "SpMSpM P2";
    p.variant = Variant::P2;
    p.trace.pcs = {10, 11, 12, 13, 14, 15};
    const int lanes = p.lanes;
    const Index beg = p.beg, end = p.end;

    LayerSpec rows;
    rows.index = an.graph.order[0].index;
    rows.mode = GroupMode::Single;
    TuSpec rowsTu = dns(beg, end);
    rowsTu.streams = {
        mem("a_ptbs", a.ptrs().data(), ElemType::I64),
        mem("a_ptes", a.ptrs().data() + 1, ElemType::I64),
    };
    rowsTu.expectedFiberLen = std::max<Index>(1, end - beg);
    rows.tus.push_back(std::move(rowsTu));
    p.layers.push_back(std::move(rows));

    // k loop over A row i; chained lookup of B's row pointers.
    LayerSpec ks;
    ks.index = an.graph.order[1].index;
    ks.mode = GroupMode::BCast;
    TuSpec ksTu = rng("a_ptbs", "a_ptes");
    ksTu.streams = {
        mem("a_idxs", a.idxs().data(), ElemType::I64),
        mem("a_vals", a.vals().data(), ElemType::F64),
        mem("b_ptbs", b.ptrs().data(), ElemType::I64, "a_idxs"),
        mem("b_ptes", b.ptrs().data() + 1, ElemType::I64, "a_idxs"),
    };
    ksTu.expectedFiberLen = std::max<Index>(2, a.nnzPerRow());
    ks.tus.push_back(std::move(ksTu));
    p.layers.push_back(std::move(ks));

    LayerSpec js;
    js.index = an.graph.order[2].index;
    js.mode = GroupMode::LockStep;
    for (int r = 0; r < lanes; ++r) {
        TuSpec jsTu = rng("b_ptbs", "b_ptes", r, lanes);
        jsTu.streams = {
            mem("b_idxs", b.idxs().data(), ElemType::I64),
            mem("b_vals", b.vals().data(), ElemType::F64),
        };
        jsTu.expectedFiberLen =
            std::max<Index>(2, b.nnzPerRow() / lanes);
        js.tus.push_back(std::move(jsTu));
    }
    p.layers.push_back(std::move(js));

    p.groupStreams = {
        {"a_val", 1, "a_vals", ElemType::F64},
        {"j", 2, "b_idxs", ElemType::I64},
        {"b_val", 2, "b_vals", ElemType::F64},
    };
    p.addCallback("set_a", 1, CallbackEvent::GroupIte, {"a_val"},
                  ComputeKind::LatchScalar);
    p.addCallback("flush", 1, CallbackEvent::GroupEnd, {},
                  ComputeKind::WorkspaceFlush);
    p.addCallback("acc", 2, CallbackEvent::GroupIte, {"j", "b_val"},
                  ComputeKind::WorkspaceAccum);
    return p;
}

PlanSpec
emitKwayMerge(const Analysis &an,
              const std::vector<DcsrMatrix> &parts, PlanSpec p)
{
    p.name = "SpKAdd";
    p.variant = Variant::P1;
    p.lanes = static_cast<int>(parts.size());
    p.trace.pcs = {21, 26, 27, 28};
    const Index beg = p.beg, end = p.end;

    LayerSpec rows;
    rows.index = an.graph.order[0].index;
    rows.mode = GroupMode::DisjMrg;
    LayerSpec cols;
    cols.index = an.graph.order[1].index;
    cols.mode = GroupMode::DisjMrg;
    for (const DcsrMatrix &mat : parts) {
        // Stored-row span of this input inside [beg, end).
        const auto rb = std::lower_bound(mat.rowIdxs().begin(),
                                         mat.rowIdxs().end(), beg) -
                        mat.rowIdxs().begin();
        const auto re = std::lower_bound(mat.rowIdxs().begin(),
                                         mat.rowIdxs().end(), end) -
                        mat.rowIdxs().begin();

        TuSpec rowsTu =
            dns(static_cast<Index>(rb), static_cast<Index>(re));
        rowsTu.streams = {
            mem("row_idxs", mat.rowIdxs().data(), ElemType::I64),
            mem("row_ptbs", mat.rowPtrs().data(), ElemType::I64),
            mem("row_ptes", mat.rowPtrs().data() + 1, ElemType::I64),
        };
        rowsTu.mergeKey = "row_idxs";
        rowsTu.expectedFiberLen =
            std::max<Index>(1, static_cast<Index>(re - rb));
        rows.tus.push_back(std::move(rowsTu));

        TuSpec colsTu = rng("row_ptbs", "row_ptes");
        colsTu.streams = {
            mem("col_idxs", mat.colIdxs().data(), ElemType::I64),
            mem("vals", mat.vals().data(), ElemType::F64),
        };
        colsTu.mergeKey = "col_idxs";
        colsTu.expectedFiberLen = std::max<Index>(
            2, mat.nnz() / std::max<Index>(1, mat.numStoredRows()));
        cols.tus.push_back(std::move(colsTu));
    }
    p.layers.push_back(std::move(rows));
    p.layers.push_back(std::move(cols));

    p.groupStreams = {
        {"row", 0, "row_idxs", ElemType::I64},
        {"col", 1, "col_idxs", ElemType::I64},
        {"val", 1, "vals", ElemType::F64},
    };
    p.addCallback("row", 0, CallbackEvent::GroupIte, {"row"},
                  ComputeKind::MergeRowLatch);
    p.addCallback("col", 1, CallbackEvent::GroupIte,
                  {"col", "val", kMskStream},
                  ComputeKind::MergeLaneReduce);
    p.addCallback("row_end", 1, CallbackEvent::GroupEnd, {},
                  ComputeKind::MergeRowEnd);
    return p;
}

PlanSpec
emitIntersect(const Analysis &an, const CsrMatrix &l, PlanSpec p)
{
    p.name = "TriangleCount";
    p.variant = Variant::P1;
    p.lanes = 2;
    p.trace.pcs = {60, 61, 62, 63};
    const Index beg = p.beg, end = p.end;

    LayerSpec rows;
    rows.index = an.graph.order[0].index;
    rows.mode = GroupMode::Single;
    TuSpec rowsTu = dns(beg, end);
    rowsTu.streams = {
        mem("l_ptbs", l.ptrs().data(), ElemType::I64),
        mem("l_ptes", l.ptrs().data() + 1, ElemType::I64),
    };
    rowsTu.expectedFiberLen = std::max<Index>(1, end - beg);
    rows.tus.push_back(std::move(rowsTu));
    p.layers.push_back(std::move(rows));

    // k loop over row i's neighbours; forward row i's bounds rightward
    // and chase row k's bounds.
    LayerSpec ks;
    ks.index = an.graph.order[1].index;
    ks.mode = GroupMode::BCast;
    TuSpec ksTu = rng("l_ptbs", "l_ptes");
    ksTu.streams = {
        mem("l_idxs", l.idxs().data(), ElemType::I64),
        mem("k_ptbs", l.ptrs().data(), ElemType::I64, "l_idxs"),
        mem("k_ptes", l.ptrs().data() + 1, ElemType::I64, "l_idxs"),
        fwd("fwd_ptbs", "l_ptbs"),
        fwd("fwd_ptes", "l_ptes"),
    };
    ksTu.expectedFiberLen = std::max<Index>(2, l.nnzPerRow());
    ks.tus.push_back(std::move(ksTu));
    p.layers.push_back(std::move(ks));

    // Conjunctive merge of row i (lane 0) and row k (lane 1).
    LayerSpec merge;
    merge.index = an.graph.order[2].index;
    merge.mode = GroupMode::ConjMrg;
    TuSpec rowI = rng("fwd_ptbs", "fwd_ptes");
    rowI.streams = {mem("n_i", l.idxs().data(), ElemType::I64)};
    rowI.mergeKey = "n_i";
    rowI.expectedFiberLen = std::max<Index>(2, l.nnzPerRow());
    merge.tus.push_back(std::move(rowI));
    TuSpec rowK = rng("k_ptbs", "k_ptes");
    rowK.streams = {mem("n_k", l.idxs().data(), ElemType::I64)};
    rowK.mergeKey = "n_k";
    rowK.expectedFiberLen = std::max<Index>(2, l.nnzPerRow());
    merge.tus.push_back(std::move(rowK));
    p.layers.push_back(std::move(merge));

    p.addCallback("hit", 2, CallbackEvent::GroupIte, {},
                  ComputeKind::CountHit);
    return p;
}

/** The shared per-lane COO nonzero stream set of the MTTKRP plans. */
std::vector<StreamSpec>
mttkrpNnzStreams(const CooTensor &t, const DenseMatrix &z, Index rank)
{
    return {
        mem("i", t.idxs(0).data(), ElemType::I64),
        mem("k", t.idxs(1).data(), ElemType::I64),
        mem("l", t.idxs(2).data(), ElemType::I64),
        mem("v", t.vals().data(), ElemType::F64),
        lin("rowB", static_cast<double>(rank), 0.0, "k"),
        lin("negRowB", -static_cast<double>(rank), 0.0, "k"),
        lin("deltaCB", static_cast<double>(rank), 0.0, "l", "negRowB"),
        lin("rowZ", static_cast<double>(rank), 0.0, "i"),
        ldr("zAddr", z.data(), "rowZ"),
    };
}

PlanSpec
emitCooRankFma(const Analysis &an, const CooTensor &t,
               const DenseMatrix &b, const DenseMatrix &c,
               DenseMatrix &z, PlanSpec p)
{
    const Index rank = b.cols();
    p.name = p.variant == Variant::P1 ? "MTTKRP P1" : "MTTKRP P2";
    p.trace.pcs = {30, 31};
    const int lanes = p.lanes;
    const Index beg = p.beg, end = p.end;

    LayerSpec nnz;
    nnz.index = an.graph.order[0].index;
    nnz.mode = p.variant == Variant::P1 ? GroupMode::LockStep
                                        : GroupMode::BCast;
    LayerSpec js;
    js.index = an.graph.order[1].index;
    js.mode = GroupMode::LockStep;

    if (p.variant == Variant::P1) {
        for (int r = 0; r < lanes; ++r) {
            TuSpec nnzTu = dns(beg + r, end, lanes);
            nnzTu.streams = mttkrpNnzStreams(t, z, rank);
            nnzTu.expectedFiberLen =
                std::max<Index>(1, (end - beg) / lanes);
            nnz.tus.push_back(std::move(nnzTu));

            TuSpec jsTu = idx("rowB", rank);
            jsTu.streams = {
                fwd("dCB", "deltaCB"),
                mem("B", b.data(), ElemType::F64),
                mem("C", c.data(), ElemType::F64, "", "dCB"),
            };
            jsTu.expectedFiberLen = rank;
            js.tus.push_back(std::move(jsTu));
        }
    } else {
        TuSpec nnzTu = dns(beg, end);
        nnzTu.streams = mttkrpNnzStreams(t, z, rank);
        nnzTu.expectedFiberLen = std::max<Index>(1, end - beg);
        nnz.tus.push_back(std::move(nnzTu));

        for (int r = 0; r < lanes; ++r) {
            TuSpec jsTu = idx("rowB", rank, r, lanes);
            jsTu.streams = {
                fwd("dCB", "deltaCB"),
                fwd("nB", "negRowB"),
                mem("B", b.data(), ElemType::F64),
                mem("C", c.data(), ElemType::F64, "", "dCB"),
                lin("j", 1.0, 0.0, "", "nB"),
            };
            jsTu.expectedFiberLen = std::max<Index>(1, rank / lanes);
            js.tus.push_back(std::move(jsTu));
        }
    }
    p.layers.push_back(std::move(nnz));
    p.layers.push_back(std::move(js));

    if (p.variant == Variant::P1) {
        p.groupStreams = {
            {"v", 0, "v", ElemType::F64},
            {"z", 0, "zAddr", ElemType::I64},
            {"B", 1, "B", ElemType::F64},
            {"C", 1, "C", ElemType::F64},
        };
        p.addCallback("nnz", 0, CallbackEvent::GroupIte,
                      {"v", "z", kMskStream}, ComputeKind::LatchLanes);
        p.addCallback("j", 1, CallbackEvent::GroupIte,
                      {"B", "C", kMskStream},
                      ComputeKind::RankFmaScatter);
    } else {
        p.groupStreams = {
            {"v", 0, "v", ElemType::F64},
            {"z", 0, "zAddr", ElemType::I64},
            {"j", 1, "j", ElemType::I64},
            {"B", 1, "B", ElemType::F64},
            {"C", 1, "C", ElemType::F64},
        };
        p.addCallback("nnz", 0, CallbackEvent::GroupIte, {"v", "z"},
                      ComputeKind::LatchNnzAddr);
        p.addCallback("j", 1, CallbackEvent::GroupIte, {"j", "B", "C"},
                      ComputeKind::RankFmaVector);
    }
    return p;
}

PlanSpec
emitSddmm(const Analysis &an, const CsrMatrix &a,
          const DenseMatrix &b, const DenseMatrix &c, PlanSpec p)
{
    const Index rank = b.cols();
    p.name = "SDDMM";
    p.variant = Variant::P1;
    p.trace.pcs = {70, 71, 72};
    const int lanes = p.lanes;
    const Index beg = p.beg, end = p.end;

    // Row loop: broadcast A's row bounds and the B-row offset (and its
    // negation, forwarded down to rebase the C-row address).
    LayerSpec rows;
    rows.index = an.graph.order[0].index;
    rows.mode = GroupMode::BCast;
    TuSpec rowsTu = dns(beg, end);
    rowsTu.streams = {
        mem("row_ptbs", a.ptrs().data(), ElemType::I64),
        mem("row_ptes", a.ptrs().data() + 1, ElemType::I64),
        lin("rowB", static_cast<double>(rank), 0.0),
        lin("negRowB", -static_cast<double>(rank), 0.0),
    };
    rowsTu.expectedFiberLen = std::max<Index>(1, end - beg);
    rows.tus.push_back(std::move(rowsTu));
    p.layers.push_back(std::move(rows));

    // Edge loop over A row i: the sampled coordinates and value, plus
    // the C-row delta (rank*col - rank*i) chained off the column load.
    LayerSpec edges;
    edges.index = an.graph.order[1].index;
    edges.mode = GroupMode::BCast;
    TuSpec edgesTu = rng("row_ptbs", "row_ptes");
    edgesTu.streams = {
        mem("a_idxs", a.idxs().data(), ElemType::I64),
        mem("a_vals", a.vals().data(), ElemType::F64),
        fwd("rowB_f", "rowB"),
        fwd("nB", "negRowB"),
        lin("deltaCB", static_cast<double>(rank), 0.0, "a_idxs", "nB"),
    };
    edgesTu.expectedFiberLen = std::max<Index>(2, a.nnzPerRow());
    edges.tus.push_back(std::move(edgesTu));
    p.layers.push_back(std::move(edges));

    // Rank loop: lanes split the dot product of B row i and C row col.
    LayerSpec ranks;
    ranks.index = an.graph.order[2].index;
    ranks.mode = GroupMode::LockStep;
    for (int r = 0; r < lanes; ++r) {
        TuSpec rankTu = idx("rowB_f", rank, r, lanes);
        rankTu.streams = {
            fwd("dCB", "deltaCB"),
            mem("B", b.data(), ElemType::F64),
            mem("C", c.data(), ElemType::F64, "", "dCB"),
        };
        rankTu.expectedFiberLen = std::max<Index>(1, rank / lanes);
        ranks.tus.push_back(std::move(rankTu));
    }
    p.layers.push_back(std::move(ranks));

    p.groupStreams = {
        {"col", 1, "a_idxs", ElemType::I64},
        {"aval", 1, "a_vals", ElemType::F64},
        {"B", 2, "B", ElemType::F64},
        {"C", 2, "C", ElemType::F64},
    };
    p.addCallback("edge", 1, CallbackEvent::GroupIte, {"col", "aval"},
                  ComputeKind::SddmmLatchEdge);
    p.addCallback("dot", 2, CallbackEvent::GroupIte, {"B", "C"},
                  ComputeKind::DotAccumulate);
    p.addCallback("emit", 2, CallbackEvent::GroupEnd, {},
                  ComputeKind::SddmmEmit);
    p.addCallback("row_end", 1, CallbackEvent::GroupEnd, {},
                  ComputeKind::EmitRowNnz);
    return p;
}

/** Shared k/j layers of the two SpMM flavors (dense B row sweep). */
void
emitSpmmInnerLayers(PlanSpec &p, const Analysis &an, const CsrMatrix &a,
                    const DenseMatrix &b)
{
    const Index cols = b.cols();
    const int lanes = p.lanes;

    // k loop over A row i; the B-row offset (and its negation, used to
    // rebase the column index) chained off the column-index load.
    LayerSpec ks;
    ks.index = an.graph.order[1].index;
    ks.mode = GroupMode::BCast;
    TuSpec ksTu = rng("a_ptbs", "a_ptes");
    ksTu.streams = {
        mem("a_idxs", a.idxs().data(), ElemType::I64),
        mem("a_vals", a.vals().data(), ElemType::F64),
        lin("rowB", static_cast<double>(cols), 0.0, "a_idxs"),
        lin("negRowB", -static_cast<double>(cols), 0.0, "a_idxs"),
    };
    ksTu.expectedFiberLen = std::max<Index>(2, a.nnzPerRow());
    ks.tus.push_back(std::move(ksTu));
    p.layers.push_back(std::move(ks));

    // Dense j sweep of B row k: lanes split the columns; the "j"
    // stream rebases the iterator to the plain column index.
    LayerSpec js;
    js.index = an.graph.order[2].index;
    js.mode = GroupMode::LockStep;
    for (int r = 0; r < lanes; ++r) {
        TuSpec jsTu = idx("rowB", cols, r, lanes);
        jsTu.streams = {
            fwd("nB", "negRowB"),
            mem("B", b.data(), ElemType::F64),
            lin("j", 1.0, 0.0, "", "nB"),
        };
        jsTu.expectedFiberLen = std::max<Index>(1, cols / lanes);
        js.tus.push_back(std::move(jsTu));
    }
    p.layers.push_back(std::move(js));
}

PlanSpec
emitSpmmWorkspace(const Analysis &an, const CsrMatrix &a,
                  const DenseMatrix &b, PlanSpec p)
{
    p.name = "SpMM P2";
    p.variant = Variant::P2;
    p.trace.pcs = {80, 81, 82};

    LayerSpec rows;
    rows.index = an.graph.order[0].index;
    rows.mode = GroupMode::Single;
    TuSpec rowsTu = dns(p.beg, p.end);
    rowsTu.streams = {
        mem("a_ptbs", a.ptrs().data(), ElemType::I64),
        mem("a_ptes", a.ptrs().data() + 1, ElemType::I64),
    };
    rowsTu.expectedFiberLen = std::max<Index>(1, p.end - p.beg);
    rows.tus.push_back(std::move(rowsTu));
    p.layers.push_back(std::move(rows));

    emitSpmmInnerLayers(p, an, a, b);

    p.groupStreams = {
        {"a_val", 1, "a_vals", ElemType::F64},
        {"j", 2, "j", ElemType::I64},
        {"B", 2, "B", ElemType::F64},
    };
    p.addCallback("set_a", 1, CallbackEvent::GroupIte, {"a_val"},
                  ComputeKind::LatchScalar);
    p.addCallback("flush", 1, CallbackEvent::GroupEnd, {},
                  ComputeKind::WorkspaceFlush);
    p.addCallback("acc", 2, CallbackEvent::GroupIte, {"j", "B"},
                  ComputeKind::WorkspaceAccum);
    return p;
}

PlanSpec
emitSpmmScatter(const Analysis &an, const CsrMatrix &a,
                const DenseMatrix &b, const std::vector<Index> &map,
                DenseMatrix &z, PlanSpec p)
{
    const Index cols = b.cols();
    p.name = "SpMM-SC";
    p.variant = Variant::P1;
    p.trace.pcs = {90, 91, 92};

    // Row loop: besides A's row bounds, chase the scatter map and turn
    // the target row into a Z address (map load -> lin -> ldr chain).
    LayerSpec rows;
    rows.index = an.graph.order[0].index;
    rows.mode = GroupMode::BCast;
    TuSpec rowsTu = dns(p.beg, p.end);
    rowsTu.streams = {
        mem("a_ptbs", a.ptrs().data(), ElemType::I64),
        mem("a_ptes", a.ptrs().data() + 1, ElemType::I64),
        mem("map_v", map.data(), ElemType::I64),
        lin("rowZ", static_cast<double>(cols), 0.0, "map_v"),
        ldr("zAddr", z.data(), "rowZ"),
    };
    rowsTu.expectedFiberLen = std::max<Index>(1, p.end - p.beg);
    rows.tus.push_back(std::move(rowsTu));
    p.layers.push_back(std::move(rows));

    emitSpmmInnerLayers(p, an, a, b);

    p.groupStreams = {
        {"zaddr", 0, "zAddr", ElemType::I64},
        {"a_val", 1, "a_vals", ElemType::F64},
        {"j", 2, "j", ElemType::I64},
        {"B", 2, "B", ElemType::F64},
    };
    p.addCallback("row", 0, CallbackEvent::GroupIte, {"zaddr"},
                  ComputeKind::LatchRowAddr);
    p.addCallback("set_a", 1, CallbackEvent::GroupIte, {"a_val"},
                  ComputeKind::LatchScalar);
    p.addCallback("acc", 2, CallbackEvent::GroupIte, {"j", "B"},
                  ComputeKind::ScatterFmaVector);
    return p;
}

/** Resolve the affine bias/scale scalar symbols against bindings. */
Expected<void>
resolveAffine(const Ast &ast, const Analysis &an,
              const EinsumBindings &bindings, PlanSpec &p)
{
    if (!an.graph.affine)
        return {};
    auto resolve = [&](const std::string &sym,
                       double &out) -> Expected<void> {
        auto it = bindings.scalars.find(sym);
        if (it == bindings.scalars.end()) {
            // Find the symbol's position for the caret.
            SourcePos pos = ast.output.pos;
            for (const AstTerm &t : ast.terms) {
                for (const AstTensor &f : t.factors) {
                    if (f.scalarSymbol && f.name == sym)
                        pos = f.pos;
                }
            }
            return diag(ast, Errc::ConfigError, pos,
                        "scalar symbol '" + sym + "' has no binding");
        }
        out *= it->second;
        return {};
    };
    p.bind.scale = 1.0;
    p.bind.bias = 1.0;
    for (const std::string &s : an.scaleSyms) {
        if (auto r = resolve(s, p.bind.scale); !r.ok())
            return r.error();
    }
    if (an.biasSyms.empty()) {
        p.bind.bias = 0.0;
    } else {
        for (const std::string &s : an.biasSyms) {
            if (auto r = resolve(s, p.bind.bias); !r.ok())
                return r.error();
        }
    }
    return {};
}

} // namespace

Expected<PlanSpec>
compileEinsum(const std::string &expr, const EinsumBindings &bindings,
              const CompileOptions &options)
{
    auto ast = parseEinsum(expr);
    if (!ast.ok())
        return ast.error();
    auto an = analyzeEinsum(*ast);
    if (!an.ok())
        return an.error();

    PlanSpec p;
    switch (an->graph.kind) {
    case PlanKind::RowReduce: {
        auto a = lookup(bindings.csr, *an->opA, *ast, "csr matrix");
        if (!a.ok())
            return a.error();
        auto x = lookup(bindings.vec, *an->opB, *ast, "dense vector");
        if (!x.ok())
            return x.error();
        if (!bindings.outVec) {
            return diagAt(Errc::ConfigError, ast->text,
                          ast->output.pos.line, ast->output.pos.col,
                          "row reduction needs an output vector "
                          "binding (outVec)");
        }
        p = skeleton(*ast, *an, options, (*a)->rows());
        p.bind.a = *a;
        p.bind.x = *x;
        p.bind.out = bindings.outVec;
        if (auto r = resolveAffine(*ast, *an, bindings, p); !r.ok())
            return r.error();
        p = emitRowReduce(*ast, *an, **a, **x, options, std::move(p));
        break;
    }
    case PlanKind::WorkspaceSpGEMM: {
        auto a = lookup(bindings.csr, *an->opA, *ast, "csr matrix");
        if (!a.ok())
            return a.error();
        auto b = lookup(bindings.csr, *an->opB, *ast, "csr matrix");
        if (!b.ok())
            return b.error();
        p = skeleton(*ast, *an, options, (*a)->rows());
        p.bind.a = *a;
        p.bind.b = *b;
        p = emitWorkspaceSpgemm(*an, **a, **b, std::move(p));
        break;
    }
    case PlanKind::KWayMerge: {
        auto parts =
            lookup(bindings.ensembles, *an->opA, *ast, "ensemble");
        if (!parts.ok())
            return parts.error();
        if ((*parts)->size() < 2) {
            return diagAt(Errc::ConfigError, ast->text,
                          an->opA->pos.line, an->opA->pos.col,
                          "ensemble reduction needs at least two "
                          "members");
        }
        Index autoEnd = 0;
        for (const DcsrMatrix &m : **parts)
            autoEnd = std::max(autoEnd, m.rows());
        p = skeleton(*ast, *an, options, autoEnd);
        p.bind.parts = *parts;
        p = emitKwayMerge(*an, **parts, std::move(p));
        break;
    }
    case PlanKind::Intersect: {
        auto l = lookup(bindings.csr, *an->opA, *ast, "csr matrix");
        if (!l.ok())
            return l.error();
        p = skeleton(*ast, *an, options, (*l)->rows());
        p.bind.a = *l;
        p = emitIntersect(*an, **l, std::move(p));
        break;
    }
    case PlanKind::CooRankFma: {
        auto t = lookup(bindings.coo, *an->opA, *ast, "coo tensor");
        if (!t.ok())
            return t.error();
        auto b = lookup(bindings.mat, *an->opB, *ast, "dense matrix");
        if (!b.ok())
            return b.error();
        auto c = lookup(bindings.mat, *an->opC, *ast, "dense matrix");
        if (!c.ok())
            return c.error();
        if (!bindings.outMat) {
            return diagAt(Errc::ConfigError, ast->text,
                          ast->output.pos.line, ast->output.pos.col,
                          "rank-FMA needs an output matrix binding "
                          "(outMat)");
        }
        if ((*t)->order() != 3 || (*b)->cols() != (*c)->cols()) {
            return diagAt(Errc::ConfigError, ast->text,
                          an->opA->pos.line, an->opA->pos.col,
                          "rank-FMA needs an order-3 tensor and "
                          "equal-rank factors");
        }
        p = skeleton(*ast, *an, options, (*t)->nnz());
        p.bind.t = *t;
        p.bind.bm = *b;
        p.bind.cm = *c;
        p.bind.z = bindings.outMat;
        p = emitCooRankFma(*an, **t, **b, **c, *bindings.outMat,
                           std::move(p));
        break;
    }
    case PlanKind::Sddmm: {
        auto a = lookup(bindings.csr, *an->opA, *ast, "csr matrix");
        if (!a.ok())
            return a.error();
        auto b = lookup(bindings.mat, *an->opB, *ast, "dense matrix");
        if (!b.ok())
            return b.error();
        auto c = lookup(bindings.mat, *an->opC, *ast, "dense matrix");
        if (!c.ok())
            return c.error();
        if ((*b)->cols() != (*c)->cols()) {
            return diagAt(Errc::ConfigError, ast->text,
                          an->opB->pos.line, an->opB->pos.col,
                          "SDDMM factors need equal rank");
        }
        p = skeleton(*ast, *an, options, (*a)->rows());
        p.bind.a = *a;
        p.bind.bm = *b;
        p.bind.cm = *c;
        p = emitSddmm(*an, **a, **b, **c, std::move(p));
        break;
    }
    case PlanKind::SpmmWorkspace: {
        auto a = lookup(bindings.csr, *an->opA, *ast, "csr matrix");
        if (!a.ok())
            return a.error();
        auto b = lookup(bindings.mat, *an->opB, *ast, "dense matrix");
        if (!b.ok())
            return b.error();
        p = skeleton(*ast, *an, options, (*a)->rows());
        p.bind.a = *a;
        p.bind.bm = *b;
        p = emitSpmmWorkspace(*an, **a, **b, std::move(p));
        break;
    }
    case PlanKind::SpmmScatter: {
        auto a = lookup(bindings.csr, *an->opA, *ast, "csr matrix");
        if (!a.ok())
            return a.error();
        auto b = lookup(bindings.mat, *an->opB, *ast, "dense matrix");
        if (!b.ok())
            return b.error();
        auto mapIt = bindings.maps.find(an->mapName);
        if (mapIt == bindings.maps.end() || !mapIt->second) {
            return diagAt(Errc::ConfigError, ast->text,
                          ast->output.indices[0].pos.line,
                          ast->output.indices[0].pos.col,
                          "scatter map '" + an->mapName +
                              "' has no binding");
        }
        if (!bindings.outMat) {
            return diagAt(Errc::ConfigError, ast->text,
                          ast->output.pos.line, ast->output.pos.col,
                          "scatter SpMM needs an output matrix "
                          "binding (outMat)");
        }
        if (static_cast<Index>(mapIt->second->size()) < (*a)->rows()) {
            return diagAt(Errc::ConfigError, ast->text,
                          ast->output.indices[0].pos.line,
                          ast->output.indices[0].pos.col,
                          "scatter map shorter than the row domain");
        }
        p = skeleton(*ast, *an, options, (*a)->rows());
        p.bind.a = *a;
        p.bind.bm = *b;
        p.bind.map = mapIt->second;
        p.bind.z = bindings.outMat;
        p = emitSpmmScatter(*an, **a, **b, *mapIt->second,
                            *bindings.outMat, std::move(p));
        break;
    }
    }
    p.validate();
    return p;
}

} // namespace tmu::plan::frontend
