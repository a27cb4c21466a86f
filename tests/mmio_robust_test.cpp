/**
 * @file
 * Parser robustness: every malformed-input failure mode of the
 * MatrixMarket/.tns readers must come back as a clean TmuError (never
 * a crash, hang or silent garbage), and a seeded mutilator that
 * corrupts valid input bytes must never escape that contract. Run
 * under ASan/UBSan in CI, this is the memory-safety net for the
 * input-facing code.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "sim/fault.hpp"
#include "tensor/convert.hpp"
#include "tensor/mmio.hpp"
#include "testing/shapes.hpp"

using namespace tmu;
using namespace tmu::tensor;

namespace {

Expected<CooTensor>
parseMtx(const std::string &text)
{
    std::istringstream in(text);
    return tryReadMatrixMarket(in);
}

Expected<CooTensor>
parseTns(const std::string &text)
{
    std::istringstream in(text);
    return tryReadTns(in);
}

const char *kGoodMtx = "%%MatrixMarket matrix coordinate real general\n"
                       "% comment\n"
                       "3 3 4\n"
                       "1 1 1.5\n"
                       "2 3 -2.0\n"
                       "3 1 4.0\n"
                       "3 3 0.5\n";

} // namespace

TEST(MmioRobust, ParsesTheGoodInput)
{
    auto t = parseMtx(kGoodMtx);
    ASSERT_TRUE(t.ok()) << t.error().str();
    EXPECT_EQ(t->nnz(), 4);
    EXPECT_EQ(t->dim(0), 3);
    EXPECT_EQ(t->dim(1), 3);
}

TEST(MmioRobust, DuplicateEntriesAreCombined)
{
    auto t = parseMtx("%%MatrixMarket matrix coordinate real general\n"
                      "2 2 3\n"
                      "1 1 1.0\n"
                      "1 1 2.5\n"
                      "2 2 1.0\n");
    ASSERT_TRUE(t.ok()) << t.error().str();
    EXPECT_EQ(t->nnz(), 2);
    EXPECT_DOUBLE_EQ(t->val(0), 3.5);
}

// One table row per distinct failure mode.
struct BadCase
{
    const char *label;
    const char *text;
    Errc code;
};

// Without a printer gtest lists the raw bytes of the struct (string
// addresses and padding), which makes the discovered test names change
// on every run; the label keeps them stable.
void
PrintTo(const BadCase &c, std::ostream *os)
{
    *os << c.label;
}

class MmioBadInput : public ::testing::TestWithParam<BadCase>
{
};

TEST_P(MmioBadInput, ReturnsTheExpectedError)
{
    const BadCase &c = GetParam();
    auto t = parseMtx(c.text);
    ASSERT_FALSE(t.ok()) << c.label << " unexpectedly parsed";
    EXPECT_EQ(t.error().code(), c.code)
        << c.label << ": " << t.error().str();
    EXPECT_FALSE(t.error().message().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Table, MmioBadInput,
    ::testing::Values(
        BadCase{"empty", "", Errc::Truncated},
        BadCase{"bad_banner",
                "%%NotMatrixMarket matrix coordinate real general\n"
                "1 1 0\n",
                Errc::ParseError},
        BadCase{"bad_format",
                "%%MatrixMarket matrix array real general\n1 1 0\n",
                Errc::ParseError},
        BadCase{"bad_field",
                "%%MatrixMarket matrix coordinate complex general\n"
                "1 1 0\n",
                Errc::ParseError},
        BadCase{"bad_symmetry",
                "%%MatrixMarket matrix coordinate real hermitian\n"
                "1 1 0\n",
                Errc::ParseError},
        BadCase{"short_header", "%%MatrixMarket matrix\n",
                Errc::ParseError},
        BadCase{"missing_size",
                "%%MatrixMarket matrix coordinate real general\n"
                "% only comments\n",
                Errc::Truncated},
        BadCase{"size_not_numbers",
                "%%MatrixMarket matrix coordinate real general\n"
                "three three four\n",
                Errc::ParseError},
        BadCase{"size_wrong_arity",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3\n",
                Errc::ParseError},
        BadCase{"size_negative",
                "%%MatrixMarket matrix coordinate real general\n"
                "-3 3 1\n1 1 1.0\n",
                Errc::OutOfRange},
        BadCase{"size_overflow",
                "%%MatrixMarket matrix coordinate real general\n"
                "99999999999999999999999999 3 1\n1 1 1.0\n",
                Errc::Overflow},
        BadCase{"nnz_insane",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 9999999999999999\n1 1 1.0\n",
                Errc::OutOfRange},
        BadCase{"truncated_entries",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 4\n1 1 1.0\n2 2 2.0\n",
                Errc::Truncated},
        BadCase{"entry_short",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 1\n1 1\n",
                Errc::ParseError},
        BadCase{"entry_garbage_index",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 1\n1x 1 1.0\n",
                Errc::ParseError},
        BadCase{"entry_index_overflow",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 1\n123456789012345678901234567890 1 1.0\n",
                Errc::Overflow},
        BadCase{"entry_out_of_range",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 1\n4 1 1.0\n",
                Errc::OutOfRange},
        BadCase{"entry_zero_index",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 1\n0 1 1.0\n",
                Errc::OutOfRange},
        BadCase{"entry_bad_value",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 1\n1 1 abc\n",
                Errc::ParseError},
        BadCase{"entry_inf_value",
                "%%MatrixMarket matrix coordinate real general\n"
                "3 3 1\n1 1 inf\n",
                Errc::OutOfRange}),
    [](const auto &info) { return info.param.label; });

TEST(MmioRobust, ErrorsCarryLineNumbers)
{
    auto t = parseMtx("%%MatrixMarket matrix coordinate real general\n"
                      "3 3 2\n"
                      "1 1 1.0\n"
                      "9 9 1.0\n");
    ASSERT_FALSE(t.ok());
    EXPECT_NE(t.error().message().find("line 4"), std::string::npos)
        << t.error().str();
}

TEST(MmioRobust, PatternAndSymmetric)
{
    auto t =
        parseMtx("%%MatrixMarket matrix coordinate pattern symmetric\n"
                 "3 3 2\n"
                 "2 1\n"
                 "3 3\n");
    ASSERT_TRUE(t.ok()) << t.error().str();
    EXPECT_EQ(t->nnz(), 3); // (2,1), (1,2) mirrored, (3,3) diagonal
}

TEST(MmioRobust, FileMissing)
{
    auto m = tryReadMatrixMarketFile("/nonexistent/nope.mtx");
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.error().code(), Errc::IoError);
    auto t = tryReadTnsFile("/nonexistent/nope.tns");
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.error().code(), Errc::IoError);
}

TEST(TnsRobust, GoodInput)
{
    auto t = parseTns("# comment\n"
                      "1 1 1 1.0\n"
                      "2 3 4 -2.0\n");
    ASSERT_TRUE(t.ok()) << t.error().str();
    EXPECT_EQ(t->order(), 3);
    EXPECT_EQ(t->nnz(), 2);
}

TEST(TnsRobust, FailureModes)
{
    EXPECT_EQ(parseTns("").error().code(), Errc::Truncated);
    EXPECT_EQ(parseTns("# only comments\n").error().code(),
              Errc::Truncated);
    EXPECT_EQ(parseTns("1 2\n").error().code(), Errc::ParseError);
    EXPECT_EQ(parseTns("1 1 1 1.0\n1 1 1 1 1.0\n").error().code(),
              Errc::ParseError); // inconsistent order
    EXPECT_EQ(parseTns("0 1 1 1.0\n").error().code(), Errc::OutOfRange);
    EXPECT_EQ(parseTns("x 1 1 1.0\n").error().code(), Errc::ParseError);
    EXPECT_EQ(
        parseTns("99999999999999999999999 1 1 1.0\n").error().code(),
        Errc::Overflow);
    EXPECT_EQ(parseTns("1 1 1 nan\n").error().code(), Errc::OutOfRange);
}

/**
 * Seeded mutilator: corrupt random bytes of valid inputs and assert the
 * parser either succeeds or returns a clean error — never crashes,
 * never loops. ASan/UBSan in the CI sanitizer job turn latent memory
 * bugs on these paths into hard failures.
 */
TEST(Mutilator, MtxNeverCrashes)
{
    Rng rng(0xFACADE);
    const std::string good = kGoodMtx;
    for (int trial = 0; trial < 2000; ++trial) {
        std::string bad = good;
        const int flips = 1 + static_cast<int>(rng.nextBounded(4));
        for (int f = 0; f < flips; ++f) {
            const std::size_t pos =
                static_cast<std::size_t>(rng.nextBounded(bad.size()));
            bad[pos] = static_cast<char>(rng.nextBounded(256));
        }
        auto t = parseMtx(bad);
        if (!t.ok()) {
            EXPECT_FALSE(t.error().message().empty());
        }
    }
}

TEST(Mutilator, MtxTruncationsNeverCrash)
{
    const std::string good = kGoodMtx;
    for (std::size_t len = 0; len < good.size(); ++len) {
        auto t = parseMtx(good.substr(0, len));
        if (!t.ok()) {
            EXPECT_FALSE(t.error().message().empty());
        }
    }
}

TEST(Mutilator, TnsNeverCrashes)
{
    Rng rng(0xBADF00D);
    const std::string good = "1 1 1 1.0\n2 3 4 -2.0\n5 5 5 3.25\n";
    for (int trial = 0; trial < 2000; ++trial) {
        std::string bad = good;
        const std::size_t pos =
            static_cast<std::size_t>(rng.nextBounded(bad.size()));
        bad[pos] = static_cast<char>(rng.nextBounded(256));
        auto t = parseTns(bad);
        if (!t.ok()) {
            EXPECT_FALSE(t.error().message().empty());
        }
    }
}

TEST(Mutilator, FaultSpecNeverCrashes)
{
    Rng rng(0xC0FFEE);
    const std::string good = "mem-lat=0.01:200,outq-corrupt=0.001";
    for (int trial = 0; trial < 2000; ++trial) {
        std::string bad = good;
        const std::size_t pos =
            static_cast<std::size_t>(rng.nextBounded(bad.size()));
        bad[pos] = static_cast<char>(rng.nextBounded(256));
        auto s = sim::FaultSpec::parse(bad);
        if (!s.ok()) {
            EXPECT_FALSE(s.error().message().empty());
        }
    }
}

TEST(MmioRobust, LegacyWrappersStillParseGoodInput)
{
    std::istringstream in(kGoodMtx);
    CooTensor t = readMatrixMarket(in);
    EXPECT_EQ(t.nnz(), 4);
}

// --- Write -> read round-trip property over the fuzzer shape classes ------
//
// 17-significant-digit text I/O must preserve dims, coordinates and
// bit-exact values for every adversarial input family, including empty
// tensors (whose shape only survives via the `# dims:` header).

TEST(MmioRoundTrip, TnsPreservesEveryShapeClassBitExact)
{
    using namespace tmu::testing;
    for (ShapeClass c : kAllShapeClasses) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            for (int order = 2; order <= 3; ++order) {
                const CooTensor t = order == 2
                                        ? sampleMatrix(c, seed)
                                        : sampleTensor3(c, seed);
                std::stringstream ss;
                writeTns(ss, t);
                auto r = tryReadTns(ss);
                ASSERT_TRUE(r.ok())
                    << shapeClassName(c) << ": " << r.error().str();
                const CooTensor &u = r.value();
                ASSERT_EQ(u.dims(), t.dims()) << shapeClassName(c);
                ASSERT_EQ(u.nnz(), t.nnz()) << shapeClassName(c);
                for (Index p = 0; p < t.nnz(); ++p) {
                    for (int m = 0; m < t.order(); ++m)
                        ASSERT_EQ(u.idx(m, p), t.idx(m, p));
                    ASSERT_EQ(u.val(p), t.val(p))
                        << shapeClassName(c) << " entry " << p;
                }
            }
        }
    }
}

TEST(MmioRoundTrip, MatrixMarketPreservesEveryShapeClassBitExact)
{
    using namespace tmu::testing;
    for (ShapeClass c : kAllShapeClasses) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const CooTensor t = sampleMatrix(c, seed);
            const CsrMatrix a = cooToCsr(t);
            std::stringstream ss;
            writeMatrixMarket(ss, a);
            auto r = tryReadMatrixMarket(ss);
            ASSERT_TRUE(r.ok())
                << shapeClassName(c) << ": " << r.error().str();
            const CsrMatrix b = cooToCsr(r.value());
            ASSERT_EQ(b.rows(), a.rows()) << shapeClassName(c);
            ASSERT_EQ(b.cols(), a.cols()) << shapeClassName(c);
            ASSERT_EQ(b.ptrs(), a.ptrs()) << shapeClassName(c);
            ASSERT_EQ(b.idxs(), a.idxs()) << shapeClassName(c);
            ASSERT_EQ(b.vals(), a.vals()) << shapeClassName(c);
        }
    }
}

TEST(MmioRoundTrip, CsfAndDcsrSurviveTextRoundTrip)
{
    // Convert each sample to CSF / DCSR, back to COO, through text,
    // and again to the compressed format: both passes must agree.
    using namespace tmu::testing;
    for (ShapeClass c : kAllShapeClasses) {
        const CooTensor t = sampleTensor3(c, 9);
        const CsfTensor f1 = cooToCsf(t);
        std::stringstream ss;
        writeTns(ss, csfToCoo(f1));
        auto r = tryReadTns(ss);
        ASSERT_TRUE(r.ok()) << shapeClassName(c);
        const CsfTensor f2 = cooToCsf(r.value());
        ASSERT_EQ(f2.dims(), f1.dims()) << shapeClassName(c);
        ASSERT_EQ(f2.vals(), f1.vals()) << shapeClassName(c);
    }
}
