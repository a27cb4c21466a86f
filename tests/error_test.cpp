/**
 * @file
 * Recoverable error model: Expected/TmuError semantics, fault-spec
 * parsing, and SystemConfig preset lookup + validation.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/config.hpp"
#include "sim/fault.hpp"

using namespace tmu;
using namespace tmu::sim;

TEST(Expected, ValueSide)
{
    Expected<int> e = 42;
    ASSERT_TRUE(e.ok());
    ASSERT_TRUE(static_cast<bool>(e));
    EXPECT_EQ(*e, 42);
    EXPECT_EQ(e.value(), 42);
}

TEST(Expected, ErrorSide)
{
    Expected<int> e = TMU_ERR(Errc::ParseError, "bad token '%s'", "xy");
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error().code(), Errc::ParseError);
    EXPECT_EQ(e.error().message(), "bad token 'xy'");
    EXPECT_EQ(e.error().str(), "ParseError: bad token 'xy'");
}

TEST(Expected, ContextChainRendersOutermostLast)
{
    Expected<int> e =
        Expected<int>(TMU_ERR(Errc::Truncated, "ended at entry 3"))
            .context("while reading 'a.mtx'")
            .context("while preparing SpMV");
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.error().str(),
              "Truncated: ended at entry 3 (while reading 'a.mtx') "
              "(while preparing SpMV)");
    EXPECT_EQ(e.error().contexts().size(), 2u);
}

TEST(Expected, ContextOnSuccessIsNoop)
{
    Expected<int> e = Expected<int>(7).context("unused");
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(*e, 7);
}

TEST(Expected, VoidSpecialization)
{
    Expected<void> ok;
    EXPECT_TRUE(ok.ok());
    Expected<void> bad = TMU_ERR(Errc::ConfigError, "cores < 1");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code(), Errc::ConfigError);
}

TEST(Expected, ErrcNamesAreStable)
{
    EXPECT_STREQ(errcName(Errc::ParseError), "ParseError");
    EXPECT_STREQ(errcName(Errc::IoError), "IoError");
    EXPECT_STREQ(errcName(Errc::Truncated), "Truncated");
    EXPECT_STREQ(errcName(Errc::OutOfRange), "OutOfRange");
    EXPECT_STREQ(errcName(Errc::Overflow), "Overflow");
    EXPECT_STREQ(errcName(Errc::UnknownName), "UnknownName");
    EXPECT_STREQ(errcName(Errc::ConfigError), "ConfigError");
    EXPECT_STREQ(errcName(Errc::Corrupted), "Corrupted");
}

TEST(FaultSpecParse, SingleSite)
{
    auto s = FaultSpec::parse("mem-lat=0.25:100");
    ASSERT_TRUE(s.ok()) << s.error().str();
    EXPECT_DOUBLE_EQ(s->site(FaultKind::MemLatencySpike).probability,
                     0.25);
    EXPECT_EQ(s->site(FaultKind::MemLatencySpike).extraCycles, 100u);
    EXPECT_TRUE(s->any());
}

TEST(FaultSpecParse, MultipleSitesAndDescribeRoundTrip)
{
    auto s = FaultSpec::parse("mem-lat=0.01:200,outq-stall=0.001");
    ASSERT_TRUE(s.ok()) << s.error().str();
    EXPECT_DOUBLE_EQ(s->site(FaultKind::OutqStall).probability, 0.001);
    EXPECT_DOUBLE_EQ(s->site(FaultKind::MemLatencySpike).probability,
                     0.01);
    EXPECT_EQ(s->site(FaultKind::MemLatencySpike).extraCycles, 200u);
}

TEST(FaultSpecParse, EmptyIsInert)
{
    auto s = FaultSpec::parse("");
    ASSERT_TRUE(s.ok()) << s.error().str();
    EXPECT_FALSE(s->any());
}

TEST(FaultSpecParse, RejectsUnknownSite)
{
    auto s = FaultSpec::parse("warp-core=0.5");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code(), Errc::UnknownName);
    // The error names the known sites so the user can fix the spec.
    EXPECT_NE(s.error().str().find("mem-lat"), std::string::npos);
}

TEST(FaultSpecParse, RejectsMalformedNumbers)
{
    EXPECT_FALSE(FaultSpec::parse("mem-lat=banana").ok());
    EXPECT_FALSE(FaultSpec::parse("mem-lat=0.5:xyz").ok());
    EXPECT_FALSE(FaultSpec::parse("mem-lat").ok());
    EXPECT_FALSE(FaultSpec::parse("mem-lat=2.0").ok());  // prob > 1
    EXPECT_FALSE(FaultSpec::parse("mem-lat=-0.1").ok()); // prob < 0
}

TEST(FaultInjector, DeterministicAcrossInstances)
{
    auto spec = FaultSpec::parse("mem-lat=0.5:10");
    ASSERT_TRUE(spec.ok());
    FaultInjector a(1234, *spec), b(1234, *spec);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.shouldInject(FaultKind::MemLatencySpike),
                  b.shouldInject(FaultKind::MemLatencySpike));
    }
    EXPECT_EQ(a.totalInjected(), b.totalInjected());
    EXPECT_GT(a.totalInjected(), 0u);
}

TEST(FaultInjector, SeedChangesTheStream)
{
    auto spec = FaultSpec::parse("mem-lat=0.5");
    ASSERT_TRUE(spec.ok());
    FaultInjector a(1, *spec), b(2, *spec);
    int differs = 0;
    for (int i = 0; i < 256; ++i) {
        if (a.shouldInject(FaultKind::MemLatencySpike) !=
            b.shouldInject(FaultKind::MemLatencySpike))
            ++differs;
    }
    EXPECT_GT(differs, 0);
}

TEST(SystemConfigPreset, KnownNames)
{
    for (const auto &name : SystemConfig::presetNames()) {
        auto p = SystemConfig::preset(name);
        ASSERT_TRUE(p.ok()) << name << ": " << p.error().str();
        auto v = p->validate();
        EXPECT_TRUE(v.ok()) << name << ": " << v.error().str();
    }
}

TEST(SystemConfigPreset, UnknownNameListsPresets)
{
    auto p = SystemConfig::preset("pentium-3");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.error().code(), Errc::UnknownName);
    EXPECT_NE(p.error().str().find("neoverse-n1"), std::string::npos);
}

TEST(SystemConfigValidate, CatchesBadMutations)
{
    SystemConfig cfg;
    cfg.cores = 0;
    EXPECT_FALSE(cfg.validate().ok());

    cfg = SystemConfig{};
    cfg.simdBits = 300;
    EXPECT_FALSE(cfg.validate().ok());

    cfg = SystemConfig{};
    cfg.l1.mshrs = 0;
    EXPECT_FALSE(cfg.validate().ok());

    cfg = SystemConfig{};
    cfg.mem.llcSlices = 0;
    EXPECT_FALSE(cfg.validate().ok());

    EXPECT_TRUE(SystemConfig{}.validate().ok());
}
