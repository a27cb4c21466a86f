/**
 * @file
 * Plan -> TMU-mode callback-handler table. One handler body per
 * ComputeKind, registered on the OutqSource under the plan-scoped
 * callback ids: each performs the host-side compute and appends the
 * micro-ops the core executes for it. Handlers capture the per-core
 * PlanState by reference and the plan's binding pointers/scalars by
 * value.
 */

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "plan/lower.hpp"
#include "sim/addrspace.hpp"

namespace tmu::plan {

using engine::OutqRecord;
using engine::OutqSource;
using sim::MicroOp;
using sim::addrOf;

void
initPlanState(const PlanSpec &plan, PlanState &st)
{
    switch (plan.kind) {
    case PlanKind::RowReduce:
        st.row = plan.beg;
        st.sum = 0.0;
        break;
    case PlanKind::WorkspaceSpGEMM:
        TMU_ASSERT(plan.bind.b, "plan '%s': SpGEMM needs operand B",
                   plan.name.c_str());
        st.acc.assign(static_cast<size_t>(plan.bind.b->cols()), 0.0);
        st.seen.assign(static_cast<size_t>(plan.bind.b->cols()), 0);
        break;
    case PlanKind::KWayMerge:
        st.curRow = kInvalidIndex;
        break;
    case PlanKind::Intersect:
        st.count = 0;
        break;
    case PlanKind::CooRankFma:
        break;
    case PlanKind::Sddmm:
        st.sum = 0.0;
        st.j = 0;
        break;
    case PlanKind::SpmmWorkspace:
        TMU_ASSERT(plan.bind.bm, "plan '%s': SpMM needs dense factor B",
                   plan.name.c_str());
        st.acc.assign(static_cast<size_t>(plan.bind.bm->cols()), 0.0);
        st.seen.assign(static_cast<size_t>(plan.bind.bm->cols()), 0);
        break;
    case PlanKind::SpmmScatter:
        st.zRow = 0;
        break;
    }
}

void
bindHandlers(const PlanSpec &plan, OutqSource &src, PlanState &st)
{
    for (const CallbackSpec &cb : plan.callbacks) {
        switch (cb.compute) {
        case ComputeKind::DotAccumulate:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                for (size_t i = 0; i < rec.operands[0].size(); ++i)
                    st.sum += rec.f64(0, static_cast<int>(i)) *
                              rec.f64(1, static_cast<int>(i));
                ops.push_back(MicroOp::flop(static_cast<std::uint16_t>(
                    2 * rec.operands[0].size())));
            });
            break;
        case ComputeKind::RowStore: {
            tensor::DenseVector *out = plan.bind.out;
            TMU_ASSERT(out, "plan '%s': RowStore needs an output vector",
                       plan.name.c_str());
            const bool rowUpdate = plan.bind.rowUpdate;
            const double scale = plan.bind.scale;
            const double bias = plan.bind.bias;
            src.setHandler(
                cb.id, [&st, out, rowUpdate, scale, bias](
                           const OutqRecord &,
                           std::vector<MicroOp> &ops) {
                    Value v = st.sum;
                    if (rowUpdate) {
                        v = bias + scale * v;
                        ops.push_back(MicroOp::flop(2));
                    }
                    (*out)[st.row] = v;
                    ops.push_back(MicroOp::store(
                        addrOf(out->data(), st.row), 8));
                    ++st.row;
                    st.sum = 0.0;
                });
            break;
        }
        case ComputeKind::LatchScalar:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                st.aVal = rec.f64(0, 0);
                ops.push_back(MicroOp::iop());
            });
            break;
        case ComputeKind::WorkspaceAccum:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                const auto n = rec.operands[0].size();
                // Scatter-accumulate into the workspace: per lane a
                // load + FMA + store on acc[j].
                for (size_t i = 0; i < n; ++i) {
                    const auto j = static_cast<size_t>(
                        rec.i64(0, static_cast<int>(i)));
                    if (!st.seen[j]) {
                        st.seen[j] = 1;
                        st.touched.push_back(static_cast<Index>(j));
                    }
                    st.acc[j] +=
                        st.aVal * rec.f64(1, static_cast<int>(i));
                    ops.push_back(MicroOp::load(
                        addrOf(st.acc.data(), static_cast<Index>(j)),
                        8));
                    ops.push_back(MicroOp::store(
                        addrOf(st.acc.data(), static_cast<Index>(j)),
                        8));
                }
                ops.push_back(
                    MicroOp::flop(static_cast<std::uint16_t>(2 * n)));
            });
            break;
        case ComputeKind::WorkspaceFlush:
            src.setHandler(cb.id, [&st](const OutqRecord &,
                                        std::vector<MicroOp> &ops) {
                std::sort(st.touched.begin(), st.touched.end());
                const auto tn = static_cast<double>(st.touched.size());
                const auto cmps = static_cast<Index>(
                    tn > 1.0 ? tn * std::log2(tn) : 0.0);
                for (Index i = 0; i < cmps; ++i)
                    ops.push_back(MicroOp::iop());
                for (const Index j : st.touched) {
                    st.idxs.push_back(j);
                    st.vals.push_back(st.acc[static_cast<size_t>(j)]);
                    st.acc[static_cast<size_t>(j)] = 0.0;
                    st.seen[static_cast<size_t>(j)] = 0;
                    ops.push_back(
                        MicroOp::load(addrOf(st.acc.data(), j), 8));
                    ops.push_back(MicroOp::store(
                        addrOf(st.vals.data(),
                               static_cast<Index>(st.vals.size() - 1)),
                        8));
                }
                st.rowNnz.push_back(
                    static_cast<Index>(st.touched.size()));
                st.touched.clear();
            });
            break;
        case ComputeKind::MergeRowLatch:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                st.curRow = rec.i64(0, 0);
                ops.push_back(MicroOp::iop());
            });
            break;
        case ComputeKind::MergeLaneReduce:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                // Fig. 7: *out_ptr++ = vec_reduce(nnz_els).
                Value sum = 0.0;
                const auto n = rec.operands[1].size();
                for (size_t i = 0; i < n; ++i)
                    sum += rec.f64(1, static_cast<int>(i));
                st.rows.push_back(st.curRow);
                st.idxs.push_back(rec.i64(0, 0));
                st.vals.push_back(sum);
                ops.push_back(
                    MicroOp::flop(static_cast<std::uint16_t>(n)));
                ops.push_back(MicroOp::store(
                    addrOf(st.vals.data(),
                           static_cast<Index>(st.vals.size() - 1)),
                    8));
            });
            break;
        case ComputeKind::MergeRowEnd:
            src.setHandler(cb.id,
                           [](const OutqRecord &,
                              std::vector<MicroOp> &ops) {
                               ops.push_back(MicroOp::iop());
                           });
            break;
        case ComputeKind::CountHit:
            src.setHandler(cb.id, [&st](const OutqRecord &,
                                        std::vector<MicroOp> &ops) {
                ++st.count;
                ops.push_back(MicroOp::iop());
            });
            break;
        case ComputeKind::LatchLanes:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                const auto n = rec.operands[0].size();
                st.laneV.assign(n, 0.0);
                st.laneZ.assign(n, 0);
                for (size_t i = 0; i < n; ++i) {
                    st.laneV[i] = rec.f64(0, static_cast<int>(i));
                    st.laneZ[i] =
                        static_cast<Addr>(rec.operands[1][i]);
                }
                st.j = 0;
                ops.push_back(MicroOp::iop());
            });
            break;
        case ComputeKind::LatchNnzAddr:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                st.v = rec.f64(0, 0);
                st.zRow = static_cast<Addr>(rec.operands[1][0]);
                ops.push_back(MicroOp::iop());
            });
            break;
        case ComputeKind::RankFmaScatter:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                const auto n = rec.operands[0].size();
                // Lanes walk their own fibers; all share the same j.
                for (size_t i = 0; i < n; ++i) {
                    auto *zrow = static_cast<Value *>(
                        sim::hostPtr(st.laneZ[i]));
                    zrow[st.j] += st.laneV[i] *
                                  rec.f64(0, static_cast<int>(i)) *
                                  rec.f64(1, static_cast<int>(i));
                    // Scatter FMA: one element load + store per lane.
                    ops.push_back(MicroOp::load(
                        st.laneZ[i] + static_cast<Addr>(st.j) * 8, 8));
                    ops.push_back(MicroOp::store(
                        st.laneZ[i] + static_cast<Addr>(st.j) * 8, 8));
                }
                ops.push_back(
                    MicroOp::flop(static_cast<std::uint16_t>(3 * n)));
                ++st.j;
            });
            break;
        case ComputeKind::RankFmaVector:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                const auto n = rec.operands[0].size();
                // Lanes cover a contiguous j block: vector FMA into z.
                const auto jBase = static_cast<Index>(rec.i64(0, 0));
                auto *zrow =
                    static_cast<Value *>(sim::hostPtr(st.zRow));
                for (size_t i = 0; i < n; ++i) {
                    const auto j = static_cast<size_t>(
                        rec.i64(0, static_cast<int>(i)));
                    zrow[j] += st.v * rec.f64(1, static_cast<int>(i)) *
                               rec.f64(2, static_cast<int>(i));
                }
                ops.push_back(MicroOp::load(
                    st.zRow + static_cast<Addr>(jBase) * 8,
                    static_cast<std::uint8_t>(n * 8)));
                ops.push_back(
                    MicroOp::flop(static_cast<std::uint16_t>(3 * n)));
                ops.push_back(MicroOp::store(
                    st.zRow + static_cast<Addr>(jBase) * 8,
                    static_cast<std::uint8_t>(n * 8)));
            });
            break;
        case ComputeKind::SddmmLatchEdge:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                st.curRow = rec.i64(0, 0);
                st.aVal = rec.f64(1, 0);
                ops.push_back(MicroOp::iop());
            });
            break;
        case ComputeKind::SddmmEmit:
            src.setHandler(cb.id, [&st](const OutqRecord &,
                                        std::vector<MicroOp> &ops) {
                st.idxs.push_back(st.curRow);
                st.vals.push_back(st.aVal * st.sum);
                st.sum = 0.0;
                ++st.j;
                ops.push_back(MicroOp::flop(1));
                ops.push_back(MicroOp::store(
                    addrOf(st.vals.data(),
                           static_cast<Index>(st.vals.size() - 1)),
                    8));
            });
            break;
        case ComputeKind::EmitRowNnz:
            src.setHandler(cb.id, [&st](const OutqRecord &,
                                        std::vector<MicroOp> &ops) {
                st.rowNnz.push_back(st.j);
                st.j = 0;
                ops.push_back(MicroOp::iop());
            });
            break;
        case ComputeKind::LatchRowAddr:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                st.zRow = static_cast<Addr>(rec.operands[0][0]);
                ops.push_back(MicroOp::iop());
            });
            break;
        case ComputeKind::ScatterFmaVector:
            src.setHandler(cb.id, [&st](const OutqRecord &rec,
                                        std::vector<MicroOp> &ops) {
                const auto n = rec.operands[0].size();
                // Lanes cover a contiguous j block of the scatter row.
                const auto jBase = static_cast<Index>(rec.i64(0, 0));
                auto *zrow =
                    static_cast<Value *>(sim::hostPtr(st.zRow));
                for (size_t i = 0; i < n; ++i) {
                    const auto j = static_cast<size_t>(
                        rec.i64(0, static_cast<int>(i)));
                    zrow[j] += st.aVal * rec.f64(1, static_cast<int>(i));
                }
                ops.push_back(MicroOp::load(
                    st.zRow + static_cast<Addr>(jBase) * 8,
                    static_cast<std::uint8_t>(n * 8)));
                ops.push_back(
                    MicroOp::flop(static_cast<std::uint16_t>(2 * n)));
                ops.push_back(MicroOp::store(
                    st.zRow + static_cast<Addr>(jBase) * 8,
                    static_cast<std::uint8_t>(n * 8)));
            });
            break;
        }
    }
}

} // namespace tmu::plan
