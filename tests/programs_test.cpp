/**
 * @file
 * Functional correctness of the Table-4 TMU programs: each program,
 * hand-built or compiled from its einsum, is executed through the
 * functional interpreter with the host-core callback semantics and
 * checked against its reference kernel. (The timing engine is verified
 * against the interpreter in tmu_engine_test; the evaluated workloads
 * additionally verify through the full timing path in workloads_test.)
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "sim/addrspace.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/spmm.hpp"
#include "kernels/spmspm.hpp"
#include "kernels/spmspv.hpp"
#include "kernels/spmv.hpp"
#include "kernels/sptc.hpp"
#include "kernels/spttm.hpp"
#include "kernels/spttv.hpp"
#include "kernels/tricount.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tmu/functional.hpp"
#include "workloads/programs.hpp"
#include "workloads/wl_spmspm.hpp"
#include "workloads/wl_spmv.hpp"
#include "workloads/wl_tensor.hpp"

namespace tmu::workloads {
namespace {

using engine::OutqRecord;
using engine::interpret;
using plan::frontend::EinsumBindings;
using tensor::CooTensor;
using tensor::CsrMatrix;
using tensor::DenseMatrix;
using tensor::DenseVector;

CsrMatrix
randomMatrix(Index rows, Index cols, double nnzPerRow,
             std::uint64_t seed)
{
    tensor::CsrGenConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.nnzPerRow = nnzPerRow;
    cfg.seed = seed;
    return tensor::randomCsr(cfg);
}

DenseVector
randomVec(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    DenseVector v(n);
    for (Index i = 0; i < n; ++i)
        v[i] = rng.nextValue(-1.0, 1.0);
    return v;
}

DenseMatrix
randomDense(Index rows, Index cols, std::uint64_t seed)
{
    Rng rng(seed);
    DenseMatrix m(rows, cols);
    for (Index i = 0; i < rows; ++i)
        for (Index j = 0; j < cols; ++j)
            m(i, j) = rng.nextValue(-1.0, 1.0);
    return m;
}

/** Compile @p expr over its full domain. */
plan::PlanSpec
compile(const char *expr, const EinsumBindings &fb, int lanes,
        plan::Variant variant = plan::Variant::P1)
{
    plan::frontend::CompileOptions fo;
    fo.lanes = lanes;
    fo.variant = variant;
    return plan::frontend::compileEinsum(expr, fb, fo).valueOrFatal();
}

TEST(Programs, SpmvP0MatchesReference)
{
    const CsrMatrix a = randomMatrix(50, 40, 4, 3);
    const DenseVector b = randomVec(40, 4);
    const DenseVector want = kernels::spmvRef(a, b);
    DenseVector x(a.rows(), 0.0);

    // P0: outer-loop lanes; each GITE carries one element per active
    // row lane; GEND of the whole lockstep group ends `lanes` rows at
    // once, so rows are tracked through the L0 row callback.
    std::vector<Index> liveRows;
    EinsumBindings fb;
    fb.csr["A"] = &a;
    fb.vec["B"] = &b;
    fb.outVec = &x;
    const plan::PlanSpec ps =
        compile(SpmvWorkload::kEinsum, fb, 4, plan::Variant::P0);
    const int rowCb = ps.callbackId("row");
    const int riCb = ps.callbackId("ri");
    interpret(plan::lowerProgram(ps), [&](const OutqRecord &rec) {
        if (rec.callbackId == rowCb) {
            liveRows.clear();
            for (size_t i = 0; i < rec.operands[0].size(); ++i)
                liveRows.push_back(rec.i64(0, static_cast<int>(i)));
        } else if (rec.callbackId == riCb) {
            // operands marshal only active lanes, in mask order; map
            // them back to the rows via the mask bits.
            int slot = 0;
            for (unsigned lane = 0; lane < 4; ++lane) {
                if (!rec.mask.test(lane))
                    continue;
                x[liveRows[lane]] += rec.f64(0, slot) * rec.f64(1, slot);
                ++slot;
            }
        }
    });
    for (Index i = 0; i < a.rows(); ++i)
        EXPECT_NEAR(x[i], want[i], 1e-12);
}

TEST(Programs, SpmspvMatchesReference)
{
    const CsrMatrix a = randomMatrix(40, 60, 5, 7);
    Rng rng(8);
    std::vector<Index> bi;
    std::vector<Value> bv;
    for (Index j = 0; j < 60; j += rng.nextIndex(1, 4)) {
        bi.push_back(j);
        bv.push_back(rng.nextValue(-1.0, 1.0));
    }
    const tensor::SparseVector b(60, bi, bv);
    const DenseVector want = kernels::spmspvRef(a, b);

    DenseVector x(a.rows(), 0.0);
    Index row = 0;
    Value sum = 0.0;
    interpret(buildSpmspv(a, b, 0, a.rows()),
              [&](const OutqRecord &rec) {
                  if (rec.callbackId == kCbRi) {
                      sum += rec.f64(0, 0) * rec.f64(0, 1);
                  } else if (rec.callbackId == kCbRe) {
                      x[row++] = sum;
                      sum = 0.0;
                  }
              });
    ASSERT_EQ(row, a.rows());
    for (Index i = 0; i < a.rows(); ++i)
        EXPECT_NEAR(x[i], want[i], 1e-12);
}

TEST(Programs, SpmmP1MatchesReference)
{
    const CsrMatrix a = randomMatrix(30, 25, 4, 9);
    const DenseMatrix b = randomDense(25, 16, 10);
    const DenseMatrix want = kernels::spmmRef(a, b);

    DenseMatrix z(a.rows(), b.cols(), 0.0);
    Index row = 0;
    Value aVal = 0.0;
    Index j = 0;
    interpret(buildSpmmP1(a, b, 8, 0, a.rows()),
              [&](const OutqRecord &rec) {
                  if (rec.callbackId == kCbRow) {
                      row = rec.i64(0, 0);
                  } else if (rec.callbackId == kCbSetA) {
                      aVal = rec.f64(0, 0);
                      j = 0;
                  } else if (rec.callbackId == kCbAcc) {
                      for (size_t i = 0; i < rec.operands[0].size();
                           ++i) {
                          z(row, j + static_cast<Index>(i)) +=
                              aVal * rec.f64(0, static_cast<int>(i));
                      }
                      j += static_cast<Index>(rec.operands[0].size());
                  }
              });
    for (Index i = 0; i < want.rows(); ++i)
        for (Index c = 0; c < want.cols(); ++c)
            EXPECT_NEAR(z(i, c), want(i, c), 1e-12);
}

TEST(Programs, SpmmP0MatchesReference)
{
    const CsrMatrix a = randomMatrix(26, 20, 4, 31);
    const DenseMatrix b = randomDense(20, 16, 32);
    const DenseMatrix want = kernels::spmmRef(a, b);

    DenseMatrix z(a.rows(), b.cols(), 0.0);
    const int lanes = 4;
    std::vector<Index> laneRow(lanes, 0);
    std::vector<Value> laneA(lanes, 0.0);
    interpret(buildSpmmP0(a, b, lanes, 0, a.rows()),
              [&](const OutqRecord &rec) {
                  int slot = 0;
                  if (rec.callbackId == kCbRow) {
                      for (unsigned l = 0; l < 4; ++l) {
                          if (rec.mask.test(l))
                              laneRow[l] = rec.i64(0, slot++);
                      }
                  } else if (rec.callbackId == kCbSetA) {
                      for (unsigned l = 0; l < 4; ++l) {
                          if (rec.mask.test(l))
                              laneA[l] = rec.f64(0, slot++);
                      }
                  } else if (rec.callbackId == kCbAcc) {
                      for (unsigned l = 0; l < 4; ++l) {
                          if (!rec.mask.test(l))
                              continue;
                          z(laneRow[l], rec.i64(0, slot)) +=
                              laneA[l] * rec.f64(1, slot);
                          ++slot;
                      }
                  }
              });
    for (Index i = 0; i < want.rows(); ++i)
        for (Index c = 0; c < want.cols(); ++c)
            EXPECT_NEAR(z(i, c), want(i, c), 1e-12);
}

TEST(Programs, SpmspmP0MatchesReference)
{
    const CsrMatrix a = randomMatrix(22, 18, 4, 33);
    const CsrMatrix b = randomMatrix(18, 25, 4, 34);
    const CsrMatrix want = kernels::spmspmRef(a, b);
    const tensor::DenseMatrix wantD = tensor::csrToDense(want);

    DenseMatrix z(a.rows(), b.cols(), 0.0);
    const int lanes = 4;
    std::vector<Index> laneRow(lanes, 0);
    std::vector<Value> laneA(lanes, 0.0);
    interpret(buildSpmspmP0(a, b, lanes, 0, a.rows()),
              [&](const OutqRecord &rec) {
                  int slot = 0;
                  if (rec.callbackId == kCbRow) {
                      for (unsigned l = 0; l < 4; ++l) {
                          if (rec.mask.test(l))
                              laneRow[l] = rec.i64(0, slot++);
                      }
                  } else if (rec.callbackId == kCbSetA) {
                      for (unsigned l = 0; l < 4; ++l) {
                          if (rec.mask.test(l))
                              laneA[l] = rec.f64(0, slot++);
                      }
                  } else if (rec.callbackId == kCbAcc) {
                      for (unsigned l = 0; l < 4; ++l) {
                          if (!rec.mask.test(l))
                              continue;
                          z(laneRow[l], rec.i64(0, slot)) +=
                              laneA[l] * rec.f64(1, slot);
                          ++slot;
                      }
                  }
              });
    for (Index i = 0; i < wantD.rows(); ++i)
        for (Index c = 0; c < wantD.cols(); ++c)
            EXPECT_NEAR(z(i, c), wantD(i, c), 1e-12);
}

TEST(Programs, MttkrpP2MatchesReference)
{
    const CooTensor t = tensor::randomCooTensor({20, 15, 12}, 200, 0.0,
                                                11);
    const DenseMatrix b = randomDense(15, 16, 12);
    const DenseMatrix c = randomDense(12, 16, 13);
    const DenseMatrix want = kernels::mttkrpRef(t, b, c, 0);

    DenseMatrix z(20, 16, 0.0);
    EinsumBindings fb;
    fb.coo["A"] = &t;
    fb.mat["B"] = &b;
    fb.mat["C"] = &c;
    fb.outMat = &z;
    const plan::PlanSpec ps =
        compile(MttkrpWorkload::kEinsum, fb, 8, plan::Variant::P2);
    const int nnzCb = ps.callbackId("nnz");
    const int jCb = ps.callbackId("j");
    Value v = 0.0;
    Addr zRow = 0;
    interpret(plan::lowerProgram(ps),
              [&](const OutqRecord &rec) {
                  if (rec.callbackId == nnzCb) {
                      v = rec.f64(0, 0);
                      zRow = static_cast<Addr>(rec.operands[1][0]);
                  } else if (rec.callbackId == jCb) {
                      auto *row = static_cast<Value *>(sim::hostPtr(zRow));
                      for (size_t i = 0; i < rec.operands[0].size();
                           ++i) {
                          const auto jj = static_cast<size_t>(
                              rec.i64(0, static_cast<int>(i)));
                          row[jj] += v *
                                     rec.f64(1, static_cast<int>(i)) *
                                     rec.f64(2, static_cast<int>(i));
                      }
                  }
              });
    for (Index i = 0; i < 20; ++i)
        for (Index jj = 0; jj < 16; ++jj)
            EXPECT_NEAR(z(i, jj), want(i, jj), 1e-12);
}

TEST(Programs, MttkrpP1MatchesReference)
{
    const CooTensor t = tensor::randomCooTensor({18, 13, 11}, 180, 0.0,
                                                15);
    const DenseMatrix b = randomDense(13, 8, 16);
    const DenseMatrix c = randomDense(11, 8, 17);
    const DenseMatrix want = kernels::mttkrpRef(t, b, c, 0);

    DenseMatrix z(18, 8, 0.0);
    EinsumBindings fb;
    fb.coo["A"] = &t;
    fb.mat["B"] = &b;
    fb.mat["C"] = &c;
    fb.outMat = &z;
    const plan::PlanSpec ps = compile(MttkrpWorkload::kEinsum, fb, 4);
    const int nnzCb = ps.callbackId("nnz");
    const int jCb = ps.callbackId("j");
    std::vector<Value> laneV;
    std::vector<Addr> laneZ;
    Index j = 0;
    interpret(plan::lowerProgram(ps),
              [&](const OutqRecord &rec) {
                  if (rec.callbackId == nnzCb) {
                      const auto n = rec.operands[0].size();
                      laneV.assign(n, 0.0);
                      laneZ.assign(n, 0);
                      for (size_t i = 0; i < n; ++i) {
                          laneV[i] = rec.f64(0, static_cast<int>(i));
                          laneZ[i] =
                              static_cast<Addr>(rec.operands[1][i]);
                      }
                      j = 0;
                  } else if (rec.callbackId == jCb) {
                      for (size_t i = 0; i < rec.operands[0].size();
                           ++i) {
                          auto *row = static_cast<Value *>(
                              sim::hostPtr(laneZ[i]));
                          row[j] += laneV[i] *
                                    rec.f64(0, static_cast<int>(i)) *
                                    rec.f64(1, static_cast<int>(i));
                      }
                      ++j;
                  }
              });
    for (Index i = 0; i < 18; ++i)
        for (Index jj = 0; jj < 8; ++jj)
            EXPECT_NEAR(z(i, jj), want(i, jj), 1e-12);
}

TEST(Programs, SpttvMatchesReference)
{
    const CooTensor ct = tensor::randomCooTensor({14, 12, 10}, 160, 0.0,
                                                 19);
    const auto a = tensor::cooToCsf(ct);
    const DenseVector b = randomVec(10, 20);
    const auto want = kernels::spttvRef(a, b);

    std::vector<kernels::Coord2> coords;
    std::vector<Value> vals;
    Index curI = 0, curJ = 0;
    Value sum = 0.0;
    interpret(buildSpttv(a, b, 4, 0, a.numNodes(0)),
              [&](const OutqRecord &rec) {
                  switch (rec.callbackId) {
                    case kCbRoot:
                      curI = rec.i64(0, 0);
                      break;
                    case kCbRow:
                      curJ = rec.i64(0, 0);
                      break;
                    case kCbRi:
                      for (size_t i = 0; i < rec.operands[0].size();
                           ++i)
                          sum += rec.f64(0, static_cast<int>(i)) *
                                 rec.f64(1, static_cast<int>(i));
                      break;
                    case kCbRe:
                      coords.push_back({curI, curJ});
                      vals.push_back(sum);
                      sum = 0.0;
                      break;
                  }
              });
    ASSERT_EQ(coords.size(), want.coords.size());
    for (size_t i = 0; i < coords.size(); ++i) {
        EXPECT_EQ(coords[i], want.coords[i]);
        EXPECT_NEAR(vals[i], want.vals[i], 1e-12);
    }
}

TEST(Programs, SpttmMatchesReference)
{
    const CooTensor ct = tensor::randomCooTensor({12, 10, 9}, 140, 0.0,
                                                 21);
    const auto a = tensor::cooToCsf(ct);
    const DenseMatrix b = randomDense(9, 8, 22);
    const auto want = kernels::spttmRef(a, b);

    std::vector<kernels::Coord2> coords;
    DenseMatrix rows(want.rows.rows(), 8, 0.0);
    Index curI = 0, curJ = 0, fiber = -1, j = 0;
    Value aVal = 0.0;
    interpret(buildSpttm(a, b, 4, 0, a.numNodes(0)),
              [&](const OutqRecord &rec) {
                  switch (rec.callbackId) {
                    case kCbRoot:
                      curI = rec.i64(0, 0);
                      break;
                    case kCbRow:
                      curJ = rec.i64(0, 0);
                      ++fiber;
                      coords.push_back({curI, curJ});
                      break;
                    case kCbSetA:
                      aVal = rec.f64(0, 0);
                      j = 0;
                      break;
                    case kCbAcc:
                      for (size_t i = 0; i < rec.operands[0].size();
                           ++i) {
                          rows(fiber, j + static_cast<Index>(i)) +=
                              aVal * rec.f64(0, static_cast<int>(i));
                      }
                      j += static_cast<Index>(rec.operands[0].size());
                      break;
                    default:
                      break;
                  }
              });
    ASSERT_EQ(coords.size(), want.coords.size());
    for (size_t t = 0; t < coords.size(); ++t) {
        EXPECT_EQ(coords[t], want.coords[t]);
        for (Index c = 0; c < 8; ++c)
            EXPECT_NEAR(rows(static_cast<Index>(t), c),
                        want.rows(static_cast<Index>(t), c), 1e-12);
    }
}

TEST(Programs, SptcSymbolicMatchesReference)
{
    const CooTensor ca = tensor::randomCooTensor({10, 8, 12}, 120, 0.0,
                                                 25);
    const CooTensor cb = tensor::randomCooTensor({12, 8, 9}, 120, 0.0,
                                                 26);
    const auto a = tensor::cooToCsf(ca);
    const auto b = tensor::cooToCsf(cb);
    const auto want = kernels::sptcSymbolicRowsRef(a, b);

    std::vector<std::uint8_t> seen(static_cast<size_t>(b.dim(2)), 0);
    std::vector<Index> touched, counts;
    interpret(buildSptcSymbolic(a, b, 0, a.numNodes(0)),
              [&](const OutqRecord &rec) {
                  if (rec.callbackId == kCbJCoord) {
                      const auto j =
                          static_cast<size_t>(rec.i64(0, 0));
                      if (!seen[j]) {
                          seen[j] = 1;
                          touched.push_back(static_cast<Index>(j));
                      }
                  } else if (rec.callbackId == kCbRootEnd) {
                      counts.push_back(
                          static_cast<Index>(touched.size()));
                      for (const Index j : touched)
                          seen[static_cast<size_t>(j)] = 0;
                      touched.clear();
                  }
              });
    EXPECT_EQ(counts, want);
}

TEST(Programs, TricountMatchesReference)
{
    const CsrMatrix g = tensor::rmatGraph(6, 4, 27);
    const CsrMatrix l = tensor::lowerTriangle(g);
    const std::uint64_t want = kernels::tricountRef(l);
    EinsumBindings fb;
    fb.csr["L"] = &l;
    const plan::PlanSpec ps = compile(TricountWorkload::kEinsum, fb, 2);
    const int hitCb = ps.callbackId("hit");
    std::uint64_t count = 0;
    interpret(plan::lowerProgram(ps),
              [&](const OutqRecord &rec) {
                  count += rec.callbackId == hitCb;
              });
    EXPECT_EQ(count, want);
}

} // namespace
} // namespace tmu::workloads
