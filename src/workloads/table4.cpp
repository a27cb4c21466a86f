#include "table4.hpp"

#include "common/log.hpp"
#include "common/rng.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tmu/functional.hpp"
#include "workloads/programs.hpp"
#include "workloads/wl_einsum.hpp"
#include "workloads/wl_merge.hpp"
#include "workloads/wl_spmspm.hpp"
#include "workloads/wl_spmv.hpp"
#include "workloads/wl_tensor.hpp"

namespace tmu::workloads {

namespace {

tensor::CsrMatrix
table4Matrix()
{
    tensor::CsrGenConfig gc;
    gc.rows = 24;
    gc.cols = 24;
    gc.nnzPerRow = 4;
    gc.seed = 3;
    return tensor::randomCsr(gc);
}

tensor::SparseVector
table4SparseVector()
{
    std::vector<Index> svi;
    std::vector<Value> svv;
    for (Index i = 0; i < 24; i += 2) {
        svi.push_back(i);
        svv.push_back(1.0);
    }
    return {24, std::move(svi), std::move(svv)};
}

} // namespace

/** Tiny pinned operands, alive as long as the row programs are. */
struct Table4::Data
{
    tensor::CsrMatrix a = table4Matrix();
    tensor::CsrMatrix at = tensor::transposeCsr(a);
    tensor::DenseVector dv{24};
    tensor::DenseMatrix dm{24, 8};
    std::vector<tensor::DcsrMatrix> parts = tensor::splitCyclic(a, 4);
    tensor::CsrMatrix lower =
        tensor::lowerTriangle(tensor::rmatGraph(5, 4, 7));
    tensor::CooTensor coo =
        tensor::randomCooTensor({16, 24, 24}, 150, 0.0, 9);
    tensor::DenseMatrix z{16, 8, 0.0};
    tensor::CsfTensor csfA = tensor::cooToCsf(coo);
    tensor::CsfTensor csfB = tensor::cooToCsf(
        tensor::randomCooTensor({24, 24, 12}, 150, 0.0, 11));
    tensor::SparseVector sv = table4SparseVector();
    tensor::DenseVector x{24}; //!< plan output binding (handlers only)
    std::vector<Index> map;    //!< SpMM-SC row permutation
    tensor::DenseMatrix zs{24, 8, 0.0}; //!< SpMM-SC output binding

    Data()
    {
        Rng rng(5);
        for (Index i = 0; i < 24; ++i)
            dv[i] = rng.nextValue(0.1, 1.0);
        for (Index i = 0; i < 24; ++i)
            for (Index j = 0; j < 8; ++j)
                dm(i, j) = rng.nextValue(0.1, 1.0);
        map.resize(24);
        for (Index i = 0; i < 24; ++i)
            map[static_cast<size_t>(i)] = 23 - i;
    }
};

Table4::Table4() : data_(new Data)
{
    Data &d = *data_;
    using plan::frontend::EinsumBindings;

    // A row compiled from its einsum against the pinned operands: the
    // labels are the compiled spec's own metadata, so the table is
    // regenerated from the IR rather than hand-kept strings.
    auto planRow = [&](const char *expr, const EinsumBindings &fb,
                       plan::Variant variant = plan::Variant::P1) {
        plan::frontend::CompileOptions fo;
        fo.lanes = 4;
        fo.variant = variant;
        plans_.push_back(
            plan::frontend::compileEinsum(expr, fb, fo).valueOrFatal());
        const plan::PlanSpec &ps = plans_.back();
        rows_.push_back(
            {ps.name, ps.einsum, ps.formats, plan::lowerProgram(ps)});
    };
    auto handRow = [&](std::string algorithm, std::string einsum,
                       std::string formats, engine::TmuProgram p) {
        rows_.push_back({std::move(algorithm), std::move(einsum),
                         std::move(formats), std::move(p)});
    };

    EinsumBindings spmv;
    spmv.csr["A"] = &d.a;
    spmv.vec["B"] = &d.dv;
    spmv.outVec = &d.x;
    planRow(SpmvWorkload::kEinsum, spmv, plan::Variant::P0);
    planRow(SpmvWorkload::kEinsum, spmv);
    handRow("SpMSpV", "Z(i) = A(i,j; csr) * B(j; sparse)", "A,B=CSR",
            buildSpmspv(d.a, d.sv, 0, d.a.rows()));
    handRow("SpMM P0", "Z(i,j) = A(i,k; csr) * B(k,j; dense)", "A=CSR",
            buildSpmmP0(d.a, d.dm, 4, 0, d.a.rows()));
    handRow("SpMM P1", "Z(i,j) = A(i,k; csr) * B(k,j; dense)", "A=CSR",
            buildSpmmP1(d.a, d.dm, 4, 0, d.a.rows()));
    handRow("SpMSpM P0", "Z(i,j; csr) = A(i,k; csr) * B(k,j; csr)",
            "A,B,Z=CSR", buildSpmspmP0(d.a, d.at, 4, 0, d.a.rows()));
    {
        EinsumBindings fb;
        fb.csr["A"] = &d.a;
        fb.csr["B"] = &d.at;
        planRow(SpmspmWorkload::kEinsum, fb);
    }
    {
        EinsumBindings fb;
        fb.ensembles["A^k"] = &d.parts;
        planRow(SpkaddWorkload::kEinsum, fb);
    }
    {
        EinsumBindings fb;
        fb.csr["A"] = &d.a;
        fb.vec["X"] = &d.dv;
        fb.outVec = &d.x;
        fb.scalars["alpha"] = 0.85;
        fb.scalars["beta"] =
            (1.0 - 0.85) / static_cast<double>(d.a.rows());
        planRow(PagerankWorkload::kEinsum, fb);
    }
    {
        EinsumBindings fb;
        fb.csr["L"] = &d.lower;
        planRow(TricountWorkload::kEinsum, fb);
    }
    {
        EinsumBindings fb;
        fb.coo["A"] = &d.coo;
        fb.mat["B"] = &d.dm;
        fb.mat["C"] = &d.dm;
        fb.outMat = &d.z;
        planRow(MttkrpWorkload::kEinsum, fb, plan::Variant::P1);
        planRow(MttkrpWorkload::kEinsum, fb, plan::Variant::P2);
    }
    handRow("SpTC", "Z(i,j) = A(i,k,l; csf) * B(l,k,j; csf)", "A,B=CSF",
            buildSptcSymbolic(d.csfA, d.csfB, 0, d.csfA.numNodes(0)));
    handRow("SpTTV", "Z(i,j) = A(i,j,k; csf) * B(k; dense)", "A=CSF",
            buildSpttv(d.csfA, d.dv, 4, 0, d.csfA.numNodes(0)));
    handRow("SpTTM", "Z(i,j,l) = A(i,j,k; csf) * B(k,l; dense)", "A=CSF",
            buildSpttm(d.csfA, d.dm, 4, 0, d.csfA.numNodes(0)));
    {
        EinsumBindings fb;
        fb.csr["A"] = &d.a;
        fb.mat["B"] = &d.dm;
        fb.mat["C"] = &d.dm;
        planRow(SddmmWorkload::kEinsum, fb);
    }
    {
        EinsumBindings fb;
        fb.csr["A"] = &d.a;
        fb.mat["B"] = &d.dm;
        planRow(SpmmWorkload::kEinsum, fb);
    }
    {
        EinsumBindings fb;
        fb.csr["A"] = &d.a;
        fb.mat["B"] = &d.dm;
        fb.maps["m"] = &d.map;
        fb.outMat = &d.zs;
        planRow(SpmmScatterWorkload::kEinsum, fb);
    }
}

Table4::~Table4() = default;

const plan::PlanSpec &
Table4::planSpec(const std::string &algorithm) const
{
    for (const plan::PlanSpec &ps : plans_) {
        if (ps.name == algorithm)
            return ps;
    }
    TMU_PANIC("Table 4 has no compiled row '%s'", algorithm.c_str());
}

TextTable
Table4::table() const
{
    TextTable t("Table 4");
    t.header({"algorithm", "einsum", "formats", "layers",
              "traversals | streams | groups | callbacks", "records"});
    for (const Table4Row &row : rows_) {
        const auto records = engine::interpretToVector(row.program);
        t.row({row.algorithm, row.einsum, row.formats,
               std::to_string(row.program.numLayers()),
               row.program.summary(), std::to_string(records.size())});
    }
    return t;
}

std::string
Table4::header()
{
    return "### Table 4 - kernel -> TMU hardware mapping\n"
           "# (migrated rows introspected from the plan IR via "
           "lowerProgram, the rest from\n# the hand-written builders; "
           "every program is run through the functional\n# interpreter "
           "as a liveness check)\n\n";
}

std::string
Table4::report() const
{
    return header() + table().render();
}

} // namespace tmu::workloads
