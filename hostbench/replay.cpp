#include "replay.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/pagerank.hpp"
#include "kernels/spadd.hpp"
#include "kernels/spmspm.hpp"
#include "kernels/spmv.hpp"
#include "kernels/tricount.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "sim/statsdump.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tensor/suite.hpp"
#include "tmu/engine.hpp"
#include "tmu/outq.hpp"
#include "workloads/partition.hpp"
#include "workloads/wl_merge.hpp"
#include "workloads/wl_tensor.hpp"

namespace hostbench {

using namespace tmu;
using plan::frontend::CompileOptions;
using plan::frontend::EinsumBindings;
using tensor::CsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;
using workloads::Mode;
using workloads::Partition;
using workloads::RunConfig;

namespace {

/** One core's compiled plan, kept for the standalone trace drain. */
struct CorePlan
{
    plan::PlanSpec spec;
    bool sparseSinks = false; //!< the run bound idxs/vals/rowNnz sinks
    bool countSink = false;   //!< the run bound the Intersect count
};

/**
 * workloads::RunHarness, call for call, with a span around each layer
 * call. RunHarness::finish() runs the system and snapshots the stats
 * in one call, which is why the replay cannot reuse it.
 */
class Harness
{
  public:
    Harness(SpanRecorder &rec, const RunConfig &cfg) : rec_(rec), cfg_(cfg)
    {
        system_ = rec.time("sim.system", [&] {
            return std::make_unique<sim::System>(cfg.system);
        });
    }

    sim::System &system() { return *system_; }
    int cores() const { return cfg_.system.cores; }

    Partition
    partition(Index total, const Index *prefix) const
    {
        return workloads::makePartition(cfg_.partition, total, prefix,
                                        cfg_.system.cores);
    }

    /**
     * The workloads' per-core loop body: compile the slice's einsum,
     * then attach a baseline trace (reading @p sinks) or a TMU program
     * whose handlers operate on @p st.
     */
    void
    attach(int c, const char *expr, const EinsumBindings &fb,
           const CompileOptions &fo, const plan::TraceSinks &sinks,
           plan::PlanState &st)
    {
        CorePlan cp;
        cp.spec = rec_.time("frontend.compile", [&] {
            return plan::frontend::compileEinsum(expr, fb, fo)
                .valueOrFatal();
        });
        if (cfg_.mode == Mode::Baseline) {
            cp.sparseSinks = sinks.idxs != nullptr;
            cp.countSink = sinks.count != nullptr;
            traces_.push_back(std::make_unique<sim::CoroutineSource>(
                plan::lowerTrace(cp.spec, sinks,
                                 sim::SimdConfig{cfg_.system.simdBits})));
            system_->attachSource(c, traces_.back().get());
        } else {
            const engine::TmuProgram prog = rec_.time(
                "plan.lower_program",
                [&] { return plan::lowerProgram(cp.spec); });
            engines_.push_back(std::make_unique<engine::TmuEngine>(
                c, cfg_.tmu, system_->mem(), prog));
            system_->addDevice(engines_.back().get());
            outqs_.push_back(
                std::make_unique<engine::OutqSource>(*engines_.back()));
            system_->attachSource(c, outqs_.back().get());
            rec_.time("plan.init_state",
                      [&] { plan::initPlanState(cp.spec, st); });
            rec_.time("plan.bind_handlers", [&] {
                plan::bindHandlers(cp.spec, *outqs_.back(), st);
            });
        }
        plans_.push_back(std::move(cp));
    }

    ReplayRun
    finish()
    {
        ReplayRun r;
        r.sim = rec_.time("sim.run", [&] { return system_->run(); });
        rec_.time("stats.snapshot", [&] {
            stats::StatRegistry reg;
            sim::buildSimRegistry(reg, r.sim, system_->mem(),
                                  /*extended=*/true);
            for (std::size_t i = 0; i < engines_.size(); ++i) {
                const std::string p =
                    "tmu" + std::to_string(engines_[i]->coreId()) + ".";
                engines_[i]->registerStats(reg, p, /*extended=*/true);
                outqs_[i]->registerStats(reg, p);
            }
            r.stats = reg.snapshot();
        });
        return r;
    }

    std::vector<CorePlan> takePlans() { return std::move(plans_); }

  private:
    SpanRecorder &rec_;
    RunConfig cfg_;
    // Same members, in the same order, as RunHarness: teardown order
    // (sources and engines before the system) must match.
    std::unique_ptr<sim::System> system_;
    std::vector<std::unique_ptr<sim::CoroutineSource>> traces_;
    std::vector<std::unique_ptr<engine::TmuEngine>> engines_;
    std::vector<std::unique_ptr<engine::OutqSource>> outqs_;
    std::vector<CorePlan> plans_;
};

/**
 * Re-lower every core's plan to its baseline trace and drain it, with
 * scratch sinks in place of the run's collectors. Dense outputs bound
 * in the plan are written again; callers verify before this runs.
 */
std::uint64_t
drainTraces(SpanRecorder &rec, const std::vector<CorePlan> &plans,
            sim::SimdConfig simd)
{
    return rec.time("plan.trace", [&] {
        std::uint64_t uops = 0;
        for (const CorePlan &cp : plans) {
            std::vector<Index> idxs, rowNnz;
            std::vector<Value> vals;
            std::uint64_t count = 0;
            plan::TraceSinks sinks;
            if (cp.sparseSinks) {
                sinks.idxs = &idxs;
                sinks.vals = &vals;
                sinks.rowNnz = &rowNnz;
            }
            if (cp.countSink)
                sinks.count = &count;
            sim::Trace t = plan::lowerTrace(cp.spec, sinks, simd);
            while (t.next() && t.value().kind != sim::OpKind::Halt)
                ++uops;
        }
        return uops;
    });
}

/**
 * The run skeleton every replay shares: span workloads.run.<mode>
 * around harness set-up (@p attach), the simulation, the snapshot,
 * verification (@p verify) and teardown, then the baseline drain.
 * Outputs the plans write must be owned by the caller, so they outlive
 * the drain.
 */
template <typename Attach, typename Verify>
ReplayRun
replayRun(SpanRecorder &rec, const RunConfig &cfg, Attach &&attach,
          Verify &&verify)
{
    ReplayRun r;
    std::vector<CorePlan> plans;
    rec.begin(cfg.mode == Mode::Baseline ? "workloads.run.baseline"
                                         : "workloads.run.tmu");
    {
        Harness h(rec, cfg);
        attach(h);
        r = h.finish();
        r.verified = rec.time("workloads.verify", verify);
        plans = h.takePlans();
    }
    rec.end();
    if (cfg.mode == Mode::Baseline) {
        r.traceUops = drainTraces(rec, plans,
                                  sim::SimdConfig{cfg.system.simdBits});
    }
    return r;
}

void
registerIndexRegion(Harness &h, const CsrMatrix &a)
{
    h.system().mem().registerIndexRegion(
        sim::addrOf(a.idxs().data(), 0), a.idxs().size() * sizeof(Index));
}

bool
near(Value got, Value want, double rel)
{
    return std::abs(got - want) <= rel * (1.0 + std::abs(want));
}

CompileOptions
sliceOptions(const RunConfig &cfg, std::pair<Index, Index> range)
{
    CompileOptions fo;
    fo.lanes = cfg.programLanes;
    fo.beg = range.first;
    fo.end = range.second;
    return fo;
}

/** SpMV and PR (wl_spmv.cpp): one row-reduce over a CSR matrix. */
class SpmvCell : public ReplayCell
{
  public:
    SpmvCell(std::string input, bool pagerank)
        : input_(std::move(input)), pagerank_(pagerank)
    {
    }

    void
    prepare(SpanRecorder &rec, Index scaleDiv) override
    {
        a_ = rec.time("tensor.generate", [&] {
            return tensor::matrixInput(input_).generate(scaleDiv);
        });
        if (!pagerank_) {
            vec_ = DenseVector(a_.cols());
            Rng rng(17);
            for (Index i = 0; i < vec_.size(); ++i)
                vec_[i] = rng.nextValue(0.1, 1.0);
            ref_ = rec.time("kernels.ref",
                            [&] { return kernels::spmvRef(a_, vec_); });
            return;
        }
        // One Jacobi iteration from the uniform start vector.
        const Index n = a_.rows();
        const CsrMatrix at = rec.time(
            "tensor.convert", [&] { return tensor::transposeCsr(a_); });
        vec_ = DenseVector(n);
        for (Index j = 0; j < n; ++j) {
            const auto outdeg =
                static_cast<Value>(std::max<Index>(1, at.rowNnz(j)));
            vec_[j] = (1.0 / static_cast<double>(n)) / outdeg;
        }
        kernels::PageRankConfig prc;
        prc.iterations = 1;
        prc.damping = kDamping;
        ref_ = rec.time("kernels.ref",
                        [&] { return kernels::pagerankRef(a_, prc); });
    }

    ReplayRun
    run(SpanRecorder &rec, const RunConfig &cfg) override
    {
        const int cores = cfg.system.cores;
        DenseVector x(a_.rows());
        std::vector<plan::PlanState> state(static_cast<size_t>(cores));
        auto attach = [&](Harness &h) {
            if (cfg.mode == Mode::Baseline)
                registerIndexRegion(h, a_);
            EinsumBindings fb;
            fb.csr["A"] = &a_;
            fb.outVec = &x;
            const char *expr;
            if (pagerank_) {
                expr = "Z(i) = beta + alpha * A(i,j; csr) * X(j; dense)";
                fb.vec["X"] = &vec_;
                fb.scalars["alpha"] = kDamping;
                fb.scalars["beta"] =
                    (1.0 - kDamping) / static_cast<double>(a_.rows());
            } else {
                expr = "Z(i) = A(i,j; csr) * B(j; dense)";
                fb.vec["B"] = &vec_;
            }
            const Partition part = h.partition(a_.rows(), a_.ptrs().data());
            for (int c = 0; c < cores; ++c) {
                h.attach(c, expr, fb, sliceOptions(cfg, part.range(c)), {},
                         state[static_cast<size_t>(c)]);
            }
        };
        auto verify = [&] {
            for (Index i = 0; i < a_.rows(); ++i) {
                if (!near(x[i], ref_[i], 1e-9))
                    return false;
            }
            return true;
        };
        return replayRun(rec, cfg, attach, verify);
    }

    std::uint64_t
    inputNnz() const override
    {
        return static_cast<std::uint64_t>(a_.nnz());
    }

  private:
    static constexpr double kDamping = 0.85;
    std::string input_;
    bool pagerank_;
    CsrMatrix a_;
    DenseVector vec_; //!< B for SpMV, the contribution vector for PR
    DenseVector ref_;
};

/** SpKAdd (wl_merge.cpp): disjunctive merge of 8 DCSR matrices. */
class SpkaddCell : public ReplayCell
{
  public:
    explicit SpkaddCell(std::string input) : input_(std::move(input)) {}

    void
    prepare(SpanRecorder &rec, Index scaleDiv) override
    {
        const CsrMatrix a = rec.time("tensor.generate", [&] {
            return tensor::matrixInput(input_).generate(scaleDiv);
        });
        nnz_ = static_cast<std::uint64_t>(a.nnz());
        parts_ = rec.time("tensor.convert", [&] {
            return tensor::splitCyclic(a,
                                       workloads::SpkaddWorkload::kInputs);
        });
        ref_ = rec.time("kernels.ref",
                        [&] { return kernels::spkaddRef(parts_); });
    }

    ReplayRun
    run(SpanRecorder &rec, const RunConfig &cfg) override
    {
        const int cores = cfg.system.cores;
        const Index rows = ref_.rows();
        std::vector<plan::PlanState> out(static_cast<size_t>(cores));
        std::vector<Index> rowBeg(static_cast<size_t>(cores), 0);
        auto attach = [&](Harness &h) {
            const Partition part = h.partition(rows, ref_.ptrs().data());
            for (int c = 0; c < cores; ++c) {
                const auto [beg, end] = part.range(c);
                plan::PlanState &st = out[static_cast<size_t>(c)];
                const auto outNnz = static_cast<size_t>(
                    ref_.rowBegin(end) - ref_.rowBegin(beg));
                EinsumBindings fb;
                fb.ensembles["A^k"] = &parts_;
                CompileOptions fo;
                fo.beg = beg;
                fo.end = end;
                const char *expr = "Z(i,j; dcsr) = sum_k A^k(i,j; dcsr)";
                if (cfg.mode == Mode::Baseline) {
                    rowBeg[static_cast<size_t>(c)] = beg;
                    st.idxs.reserve(outNnz);
                    st.vals.reserve(outNnz);
                    st.rowNnz.reserve(static_cast<size_t>(end - beg));
                    h.attach(c, expr, fb, fo,
                             {&st.idxs, &st.vals, &st.rowNnz, nullptr}, st);
                } else {
                    st.rows.reserve(outNnz);
                    st.idxs.reserve(outNnz);
                    st.vals.reserve(outNnz);
                    h.attach(c, expr, fb, fo, {}, st);
                }
            }
        };
        auto verify = [&] {
            if (cfg.mode == Mode::Baseline) {
                // Row coordinates from the baseline rowNnz collectors.
                for (int c = 0; c < cores; ++c) {
                    plan::PlanState &st = out[static_cast<size_t>(c)];
                    for (size_t lr = 0; lr < st.rowNnz.size(); ++lr) {
                        for (Index e = 0; e < st.rowNnz[lr]; ++e) {
                            st.rows.push_back(
                                rowBeg[static_cast<size_t>(c)] +
                                static_cast<Index>(lr));
                        }
                    }
                }
            }
            return verifyMerged(out);
        };
        return replayRun(rec, cfg, attach, verify);
    }

    std::uint64_t inputNnz() const override { return nnz_; }

  private:
    /** Stitched per-core triples against the reference CSR. */
    bool
    verifyMerged(const std::vector<plan::PlanState> &out) const
    {
        std::vector<size_t> q(out.size(), 0);
        for (Index i = 0; i < ref_.rows(); ++i) {
            for (Index p = ref_.rowBegin(i); p < ref_.rowEnd(i); ++p) {
                bool found = false;
                for (size_t c = 0; c < out.size() && !found; ++c) {
                    size_t &cq = q[c];
                    if (cq < out[c].rows.size() && out[c].rows[cq] == i) {
                        if (out[c].idxs[cq] !=
                                ref_.idxs()[static_cast<size_t>(p)] ||
                            std::abs(out[c].vals[cq] -
                                     ref_.vals()[static_cast<size_t>(p)]) >
                                1e-9)
                            return false;
                        ++cq;
                        found = true;
                    }
                }
                if (!found)
                    return false;
            }
        }
        size_t total = 0;
        for (const auto &o : out)
            total += o.idxs.size();
        return total == static_cast<size_t>(ref_.nnz());
    }

    std::string input_;
    std::uint64_t nnz_ = 0;
    std::vector<tensor::DcsrMatrix> parts_;
    CsrMatrix ref_;
};

/** SpMSpM (wl_spmspm.cpp): Gustavson Z = A * A^T. */
class SpmspmCell : public ReplayCell
{
  public:
    explicit SpmspmCell(std::string input) : input_(std::move(input)) {}

    void
    prepare(SpanRecorder &rec, Index scaleDiv) override
    {
        a_ = rec.time("tensor.generate", [&] {
            return tensor::matrixInput(input_).generate(scaleDiv * 4);
        });
        bt_ = rec.time("tensor.convert",
                       [&] { return tensor::transposeCsr(a_); });
        ref_ = rec.time("kernels.ref",
                        [&] { return kernels::spmspmRef(a_, bt_); });
    }

    ReplayRun
    run(SpanRecorder &rec, const RunConfig &cfg) override
    {
        const int cores = cfg.system.cores;
        std::vector<plan::PlanState> out(static_cast<size_t>(cores));
        Partition part;
        auto attach = [&](Harness &h) {
            if (cfg.mode == Mode::Baseline)
                registerIndexRegion(h, a_);
            part = h.partition(a_.rows(), a_.ptrs().data());
            for (int c = 0; c < cores; ++c) {
                const auto [beg, end] = part.range(c);
                plan::PlanState &st = out[static_cast<size_t>(c)];
                const auto outNnz = static_cast<size_t>(
                    ref_.rowBegin(end) - ref_.rowBegin(beg));
                st.idxs.reserve(outNnz);
                st.vals.reserve(outNnz);
                st.rowNnz.reserve(static_cast<size_t>(end - beg));
                EinsumBindings fb;
                fb.csr["A"] = &a_;
                fb.csr["B"] = &bt_;
                plan::TraceSinks sinks;
                if (cfg.mode == Mode::Baseline)
                    sinks = {&st.idxs, &st.vals, &st.rowNnz, nullptr};
                h.attach(c, "Z(i,j; csr) = A(i,k; csr) * B(k,j; csr)", fb,
                         sliceOptions(cfg, {beg, end}), sinks, st);
            }
        };
        auto verify = [&] {
            for (int c = 0; c < cores; ++c) {
                const auto [beg, end] = part.range(c);
                const plan::PlanState &st = out[static_cast<size_t>(c)];
                if (st.rowNnz.size() != static_cast<size_t>(end - beg))
                    return false;
                size_t q = 0;
                for (Index i = beg; i < end; ++i) {
                    if (st.rowNnz[static_cast<size_t>(i - beg)] !=
                        ref_.rowNnz(i))
                        return false;
                    for (Index p = ref_.rowBegin(i); p < ref_.rowEnd(i);
                         ++p, ++q) {
                        if (st.idxs[q] !=
                                ref_.idxs()[static_cast<size_t>(p)] ||
                            std::abs(st.vals[q] -
                                     ref_.vals()[static_cast<size_t>(p)]) >
                                1e-9)
                            return false;
                    }
                }
            }
            return true;
        };
        return replayRun(rec, cfg, attach, verify);
    }

    std::uint64_t
    inputNnz() const override
    {
        return static_cast<std::uint64_t>(a_.nnz());
    }

  private:
    std::string input_;
    CsrMatrix a_;
    CsrMatrix bt_;
    CsrMatrix ref_;
};

/** TC (wl_spmspm.cpp): fused triangle count on the lower triangle. */
class TricountCell : public ReplayCell
{
  public:
    explicit TricountCell(std::string input) : input_(std::move(input)) {}

    void
    prepare(SpanRecorder &rec, Index scaleDiv) override
    {
        const CsrMatrix a = rec.time("tensor.generate", [&] {
            return tensor::matrixInput(input_).generate(scaleDiv * 4);
        });
        nnz_ = static_cast<std::uint64_t>(a.nnz());
        // Symmetric graph from the pattern, strict lower triangle.
        l_ = rec.time("tensor.convert", [&] {
            tensor::CooTensor coo = tensor::csrToCoo(a);
            tensor::CooTensor sym({a.rows(), a.rows()});
            for (Index p = 0; p < coo.nnz(); ++p) {
                const Index i = coo.idx(0, p);
                const Index j = coo.idx(1, p) % a.rows();
                if (i == j)
                    continue;
                sym.push2(i, j, 1.0);
                sym.push2(j, i, 1.0);
            }
            sym.sortAndCombine();
            for (auto &v : sym.vals())
                v = 1.0;
            return tensor::lowerTriangle(tensor::cooToCsr(sym));
        });
        ref_ = rec.time("kernels.ref",
                        [&] { return kernels::tricountRef(l_); });
    }

    ReplayRun
    run(SpanRecorder &rec, const RunConfig &cfg) override
    {
        const int cores = cfg.system.cores;
        std::vector<plan::PlanState> st(static_cast<size_t>(cores));
        auto attach = [&](Harness &h) {
            const Partition part = h.partition(l_.rows(), l_.ptrs().data());
            for (int c = 0; c < cores; ++c) {
                const auto [beg, end] = part.range(c);
                plan::PlanState &s = st[static_cast<size_t>(c)];
                EinsumBindings fb;
                fb.csr["L"] = &l_;
                CompileOptions fo;
                fo.beg = beg;
                fo.end = end;
                plan::TraceSinks sinks;
                if (cfg.mode == Mode::Baseline)
                    sinks.count = &s.count;
                h.attach(c, "c = L(i,k; csr) * L(k,j; csr) * L(i,j; csr)",
                         fb, fo, sinks, s);
            }
        };
        auto verify = [&] {
            std::uint64_t total = 0;
            for (const auto &s : st)
                total += s.count;
            return total == ref_;
        };
        return replayRun(rec, cfg, attach, verify);
    }

    std::uint64_t inputNnz() const override { return nnz_; }

  private:
    std::string input_;
    std::uint64_t nnz_ = 0;
    CsrMatrix l_;
    std::uint64_t ref_ = 0;
};

/** MTTKRP_MP / MTTKRP_CP (wl_tensor.cpp): COO tensor times factors. */
class MttkrpCell : public ReplayCell
{
  public:
    MttkrpCell(std::string input, plan::Variant variant)
        : input_(std::move(input)), variant_(variant)
    {
    }

    void
    prepare(SpanRecorder &rec, Index scaleDiv) override
    {
        t_ = rec.time("tensor.generate", [&] {
            return tensor::tensorInput(input_).generate(scaleDiv);
        });
        constexpr Index rank = workloads::MttkrpWorkload::kRank;
        Rng rng(23);
        b_ = DenseMatrix(t_.dim(1), rank);
        c_ = DenseMatrix(t_.dim(2), rank);
        for (Index i = 0; i < b_.rows(); ++i)
            for (Index j = 0; j < rank; ++j)
                b_(i, j) = rng.nextValue(0.1, 1.0);
        for (Index i = 0; i < c_.rows(); ++i)
            for (Index j = 0; j < rank; ++j)
                c_(i, j) = rng.nextValue(0.1, 1.0);
        ref_ = rec.time("kernels.ref", [&] {
            return kernels::mttkrpRef(t_, b_, c_, 0);
        });
    }

    ReplayRun
    run(SpanRecorder &rec, const RunConfig &cfg) override
    {
        const int cores = cfg.system.cores;
        // Private per-core accumulators (GenTen style).
        std::vector<DenseMatrix> z;
        z.reserve(static_cast<size_t>(cores));
        for (int c = 0; c < cores; ++c)
            z.emplace_back(t_.dim(0), workloads::MttkrpWorkload::kRank,
                           0.0);
        std::vector<plan::PlanState> st(static_cast<size_t>(cores));
        auto attach = [&](Harness &h) {
            const Partition part = h.partition(t_.nnz(), nullptr);
            for (int c = 0; c < cores; ++c) {
                EinsumBindings fb;
                fb.coo["A"] = &t_;
                fb.mat["B"] = &b_;
                fb.mat["C"] = &c_;
                fb.outMat = &z[static_cast<size_t>(c)];
                CompileOptions fo = sliceOptions(cfg, part.range(c));
                fo.variant = variant_;
                h.attach(c,
                         "Z(i,j) = A(i,k,l; coo) * B(k,j; dense) * "
                         "C(l,j; dense)",
                         fb, fo, {}, st[static_cast<size_t>(c)]);
            }
        };
        auto verify = [&] {
            for (Index i = 0; i < ref_.rows(); ++i) {
                for (Index j = 0; j < ref_.cols(); ++j) {
                    Value sum = 0.0;
                    for (const auto &zc : z)
                        sum += zc(i, j);
                    if (!near(sum, ref_(i, j), 1e-6))
                        return false;
                }
            }
            return true;
        };
        return replayRun(rec, cfg, attach, verify);
    }

    std::uint64_t
    inputNnz() const override
    {
        return static_cast<std::uint64_t>(t_.nnz());
    }

  private:
    std::string input_;
    plan::Variant variant_;
    tensor::CooTensor t_;
    DenseMatrix b_;
    DenseMatrix c_;
    DenseMatrix ref_;
};

} // namespace

std::unique_ptr<ReplayCell>
makeReplayCell(const std::string &workload, const std::string &input)
{
    if (workload == "SpMV")
        return std::make_unique<SpmvCell>(input, false);
    if (workload == "PR")
        return std::make_unique<SpmvCell>(input, true);
    if (workload == "SpKAdd")
        return std::make_unique<SpkaddCell>(input);
    if (workload == "SpMSpM")
        return std::make_unique<SpmspmCell>(input);
    if (workload == "TC")
        return std::make_unique<TricountCell>(input);
    if (workload == "MTTKRP_MP")
        return std::make_unique<MttkrpCell>(input, plan::Variant::P1);
    if (workload == "MTTKRP_CP")
        return std::make_unique<MttkrpCell>(input, plan::Variant::P2);
    return nullptr;
}

} // namespace hostbench
