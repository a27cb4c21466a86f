/**
 * @file
 * Tests for src/testing — the harness that tests everything else.
 *
 * Three acceptance gates live here: the fuzzing loop is bit-identical
 * across runs for a fixed seed (outcome hash), the self-check detects
 * 100% of injected mutations, and every corpus case under
 * tests/corpus/ replays green. Plus unit coverage for the sampler,
 * the minimizer and the corpus serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "common/rng.hpp"
#include "tensor/compare.hpp"
#include "testing/fuzzer.hpp"
#include "testing/metamorphic.hpp"
#include "testing/minimize.hpp"
#include "testing/oracle.hpp"
#include "testing/shapes.hpp"

namespace tmu::testing {
namespace {

using tensor::Compare;
using tensor::CooTensor;

// --- Sampler -----------------------------------------------------------

TEST(Shapes, EveryClassSamplesCanonicalTensors)
{
    for (ShapeClass c : kAllShapeClasses) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            for (int order = 2; order <= 3; ++order) {
                const CooTensor t = order == 2
                                        ? sampleMatrix(c, seed)
                                        : sampleTensor3(c, seed);
                ASSERT_EQ(t.order(), order)
                    << shapeClassName(c) << " seed " << seed;
                for (int m = 0; m < t.order(); ++m)
                    ASSERT_GE(t.dims()[static_cast<size_t>(m)], 1);
                // Canonical: strictly increasing lexicographic coords.
                for (Index p = 1; p < t.nnz(); ++p) {
                    bool less = false;
                    for (int m = 0; m < t.order(); ++m) {
                        if (t.idx(m, p - 1) != t.idx(m, p)) {
                            less = t.idx(m, p - 1) < t.idx(m, p);
                            break;
                        }
                    }
                    ASSERT_TRUE(less)
                        << shapeClassName(c) << " seed " << seed
                        << ": entries " << p - 1 << "," << p;
                }
                // In-bounds coordinates.
                for (Index p = 0; p < t.nnz(); ++p) {
                    for (int m = 0; m < t.order(); ++m) {
                        ASSERT_GE(t.idx(m, p), 0);
                        ASSERT_LT(t.idx(m, p),
                                  t.dims()[static_cast<size_t>(m)]);
                    }
                }
            }
        }
    }
}

TEST(Shapes, SamplesAreAPureFunctionOfClassAndSeed)
{
    for (ShapeClass c : kAllShapeClasses) {
        const CooTensor a = sampleMatrix(c, 99);
        const CooTensor b = sampleMatrix(c, 99);
        ASSERT_EQ(a.dims(), b.dims());
        for (int m = 0; m < a.order(); ++m)
            ASSERT_EQ(a.idxs(m), b.idxs(m));
        ASSERT_EQ(a.vals(), b.vals());
    }
}

TEST(Shapes, PatternOnlyIsAllOnes)
{
    const CooTensor t = sampleMatrix(ShapeClass::PatternOnly, 5);
    ASSERT_GT(t.nnz(), 0);
    for (Index p = 0; p < t.nnz(); ++p)
        EXPECT_EQ(t.val(p), 1.0);
}

// --- Compare -----------------------------------------------------------

TEST(Compare, UlpAndTolerance)
{
    Compare c;
    EXPECT_TRUE(c.close(1.0, 1.0));
    EXPECT_TRUE(c.close(0.0, -0.0));
    EXPECT_TRUE(c.close(1.0, 1.0 + 1e-15));
    EXPECT_FALSE(c.close(1.0, 1.0 + 1e-6));
    EXPECT_FALSE(c.close(1.0, 2.0));
    // Both-NaN compares equal (legs must agree on NaN placement too).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(c.close(nan, nan));
    EXPECT_FALSE(c.close(nan, 1.0));
    // Exact mode rejects even 1-ulp differences.
    const Compare e = Compare::exact();
    EXPECT_FALSE(
        e.close(1.0, std::nextafter(1.0, 2.0)));
    EXPECT_TRUE(e.close(-0.0, -0.0));
}

// --- Mutations ---------------------------------------------------------

TEST(Mutation, EveryMutationChangesSemantics)
{
    const CooTensor t = sampleMatrix(ShapeClass::UniformRandom, 11);
    ASSERT_GT(t.nnz(), 0);
    for (Mutation m : kAllMutations) {
        const CooTensor u = applyMutation(t, m);
        const bool dimsDiffer = u.dims() != t.dims();
        const bool nnzDiffer = u.nnz() != t.nnz();
        bool valsDiffer = false;
        if (!dimsDiffer && !nnzDiffer)
            valsDiffer = u.vals() != t.vals();
        EXPECT_TRUE(dimsDiffer || nnzDiffer || valsDiffer)
            << mutationName(m);
    }
}

TEST(Mutation, EmptyTensorDegradesToGrowDim)
{
    const CooTensor t(std::vector<Index>{4, 5});
    const CooTensor u = applyMutation(t, Mutation::DropEntry);
    EXPECT_NE(u.dims(), t.dims());
}

// --- Oracle + metamorphic clean runs -----------------------------------

TEST(Oracle, CleanTreePassesEveryShapeClass)
{
    OracleConfig cfg;
    cfg.heavy = false; // keep this test tier-1 fast
    for (ShapeClass c : kAllShapeClasses) {
        const auto fails = runCaseChecks(sampleMatrix(c, 17), cfg);
        EXPECT_TRUE(fails.empty())
            << shapeClassName(c) << ": " << fails.front();
        const auto f3 = runCaseChecks(sampleTensor3(c, 17), cfg);
        EXPECT_TRUE(f3.empty())
            << shapeClassName(c) << " order-3: " << f3.front();
    }
}

// --- Fuzz loop determinism (acceptance gate) ----------------------------

TEST(Fuzz, SameSeedSameOutcomeHash)
{
    FuzzConfig cfg;
    cfg.seed = 1234;
    cfg.iters = 24;
    cfg.oracle.heavy = false;
    const FuzzReport a = runFuzz(cfg);
    const FuzzReport b = runFuzz(cfg);
    EXPECT_EQ(a.casesRun, cfg.iters);
    EXPECT_EQ(a.casesRun, b.casesRun);
    EXPECT_EQ(a.outcomeHash, b.outcomeHash);
    EXPECT_TRUE(a.ok()) << a.failed.front().failures.front();

    FuzzConfig other = cfg;
    other.seed = 1235;
    EXPECT_NE(runFuzz(other).outcomeHash, a.outcomeHash);
}

TEST(Fuzz, CaseSeedsAreDecorrelated)
{
    std::set<std::uint64_t> seen;
    for (Index i = 0; i < 100; ++i)
        seen.insert(caseSeed(1, i));
    for (Index i = 0; i < 100; ++i)
        seen.insert(caseSeed(2, i));
    EXPECT_EQ(seen.size(), 200u);
}

// --- Self-check (acceptance gate: 100% detection) -----------------------

TEST(Fuzz, SelfCheckDetectsEveryInjectedMutation)
{
    const SelfCheckReport rep = runSelfCheck(7, /*rounds=*/1);
    EXPECT_GT(rep.injected, 0);
    EXPECT_EQ(rep.detected, rep.injected)
        << (rep.missed.empty() ? "" : rep.missed.front());
    EXPECT_TRUE(rep.ok());
}

// --- Minimizer ---------------------------------------------------------

TEST(Minimize, ShrinksToTheSingleRelevantEntry)
{
    // Synthetic bug: the failure depends only on the value 7.0 being
    // stored somewhere. 40 decoy entries, one trigger.
    CooTensor coo({30, 30});
    Rng rng(3);
    for (int i = 0; i < 40; ++i)
        coo.push2(rng.nextIndex(0, 30), rng.nextIndex(0, 30), 2.0);
    coo.push2(17, 23, 7.0);
    coo.sortAndCombine();

    FailPredicate pred = [](const CooTensor &t) {
        for (Index p = 0; p < t.nnz(); ++p)
            if (t.val(p) == 7.0)
                return true;
        return false;
    };
    ASSERT_TRUE(pred(coo));
    MinimizeStats st;
    const CooTensor small = minimizeTensor(coo, pred, &st);
    ASSERT_TRUE(pred(small));
    EXPECT_EQ(small.nnz(), 1);
    EXPECT_EQ(small.val(0), 7.0);
    EXPECT_TRUE(st.dimsShrunk);
    EXPECT_EQ(small.dims(), (std::vector<Index>{18, 24}));
    EXPECT_LE(st.predicateCalls, 400);
}

TEST(Minimize, RespectsTheCheckBudget)
{
    CooTensor coo({8, 8});
    for (Index r = 0; r < 8; ++r)
        for (Index c = 0; c < 8; ++c)
            coo.push2(r, c, 3.0);
    coo.sortAndCombine();
    int calls = 0;
    FailPredicate pred = [&](const CooTensor &) {
        ++calls;
        return true; // always fails: worst case for the loop
    };
    minimizeTensor(coo, pred, nullptr, /*maxChecks=*/25);
    EXPECT_LE(calls, 25 + 3); // phase boundaries may peek once each
}

// --- Corpus serialization ----------------------------------------------

TEST(Corpus, CaseRoundTripsThroughText)
{
    CorpusCase c;
    c.check = "matrix";
    c.operandSeed = 0xdeadbeef;
    c.tensor = sampleMatrix(ShapeClass::Diagonalish, 21);
    std::stringstream ss;
    writeCorpusCase(ss, c);
    auto r = tryReadCorpusCase(ss);
    ASSERT_TRUE(r.ok()) << r.error().str();
    EXPECT_EQ(r.value().check, "matrix");
    EXPECT_EQ(r.value().operandSeed, 0xdeadbeefULL);
    EXPECT_EQ(r.value().tensor.dims(), c.tensor.dims());
    for (int m = 0; m < c.tensor.order(); ++m)
        EXPECT_EQ(r.value().tensor.idxs(m), c.tensor.idxs(m));
    EXPECT_EQ(r.value().tensor.vals(), c.tensor.vals());
}

TEST(Corpus, RejectsWrongOrderAndUnknownKind)
{
    CorpusCase c;
    c.check = "tensor3";
    c.tensor = sampleMatrix(ShapeClass::UniformRandom, 2); // order 2
    std::stringstream ss;
    writeCorpusCase(ss, c);
    EXPECT_FALSE(tryReadCorpusCase(ss).ok());

    std::stringstream bad("# check: matrix5\n# dims: 2 2\n1 1 1\n");
    EXPECT_FALSE(tryReadCorpusCase(bad).ok());
}

// --- Corpus replay (acceptance gate: all cases green) -------------------

TEST(Corpus, EveryCheckedInCaseReplaysGreen)
{
    const auto outcomes = replayCorpus(TMU_CORPUS_DIR, OracleConfig{});
    EXPECT_GE(outcomes.size(), 5u);
    for (const auto &o : outcomes) {
        EXPECT_TRUE(o.failures.empty())
            << o.path << ": " << o.failures.front();
    }
}

// --- Sim invariants (one cheap configuration) ---------------------------

TEST(Metamorphic, SimInvariantsHoldForSmallSpmv)
{
    const auto fails = checkSimInvariants("SpMV", "M1", 512);
    EXPECT_TRUE(fails.empty()) << fails.front();
}

} // namespace
} // namespace tmu::testing
