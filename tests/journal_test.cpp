/**
 * @file
 * The crash-safe sweep journal behind `tmu_run --journal/--resume`:
 * fingerprint, exact record round trip, torn-tail tolerance.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/journal.hpp"

using namespace tmu;
using namespace tmu::sim;

namespace {

std::string
tempPath(const std::string &name)
{
    const std::string p = ::testing::TempDir() + "tmu_journal_" + name;
    std::remove(p.c_str());
    return p;
}

TaskRecord
sampleRecord(std::size_t index, const std::string &status)
{
    TaskRecord rec;
    rec.index = index;
    rec.task = "SpMV";
    rec.input = "synthetic:1000x1000:0.01";
    rec.status = status;
    rec.output = "SpMV block\nwith \"quotes\" and\ttabs\n";
    rec.verified = true;

    TaskRunRecord run;
    run.run = "baseline";
    run.termination = "completed";
    stats::SnapshotEntry u;
    u.name = "sim.cycles";
    u.desc = "wall-clock cycles (max over cores)";
    u.kind = stats::StatKind::U64;
    u.u = 18'446'744'073'709'551'615ull; // u64 max round-trips
    stats::SnapshotEntry f;
    f.name = "sim.achievedGBs";
    f.desc = "DRAM bandwidth achieved (GB/s)";
    f.kind = stats::StatKind::F64;
    f.f = 0.1 + 3e-17; // needs the lossless hexfloat path
    run.stats.entries = {u, f};
    rec.runs = {run};
    return rec;
}

void
expectRecordsEqual(const TaskRecord &a, const TaskRecord &b)
{
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.task, b.task);
    EXPECT_EQ(a.input, b.input);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.verified, b.verified);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t r = 0; r < a.runs.size(); ++r) {
        EXPECT_EQ(a.runs[r].run, b.runs[r].run);
        EXPECT_EQ(a.runs[r].termination, b.runs[r].termination);
        const auto &ae = a.runs[r].stats.entries;
        const auto &be = b.runs[r].stats.entries;
        ASSERT_EQ(ae.size(), be.size());
        for (std::size_t i = 0; i < ae.size(); ++i) {
            EXPECT_EQ(ae[i].name, be[i].name);
            EXPECT_EQ(ae[i].desc, be[i].desc);
            EXPECT_EQ(ae[i].kind, be[i].kind);
            EXPECT_EQ(ae[i].u, be[i].u);
            // Bit-exact double round trip (the %a hexfloat path).
            EXPECT_EQ(ae[i].f, be[i].f);
        }
    }
}

void
appendRaw(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace

TEST(SweepJournal, FingerprintJsonIsCanonical)
{
    const std::string fp = fingerprintJson(
        {{"workloads", "SpMV,SpAdd"}, {"scale", "512"}});
    EXPECT_EQ(fp, "{\"workloads\":\"SpMV,SpAdd\",\"scale\":\"512\"}");
    // Values are escaped as JSON strings.
    EXPECT_EQ(fingerprintJson({{"k", "a\"b"}}),
              "{\"k\":\"a\\\"b\"}");
}

TEST(SweepJournal, RoundTripsRecordsExactly)
{
    const std::string path = tempPath("roundtrip.jsonl");
    const std::string fp = fingerprintJson({{"scale", "512"}});
    {
        auto journal = SweepJournal::open(path, fp);
        ASSERT_TRUE(journal.ok()) << journal.error().str();
        journal.value().append(sampleRecord(0, "ok"));
        journal.value().append(sampleRecord(3, "failed"));
    }
    const auto replay = replayJournal(path, fp);
    ASSERT_TRUE(replay.ok()) << replay.error().str();
    EXPECT_EQ(replay.value().linesDropped, 0u);
    ASSERT_EQ(replay.value().records.size(), 2u);
    expectRecordsEqual(replay.value().records[0],
                       sampleRecord(0, "ok"));
    expectRecordsEqual(replay.value().records[1],
                       sampleRecord(3, "failed"));
    std::remove(path.c_str());
}

TEST(SweepJournal, ReopenAppendsWithoutASecondHeader)
{
    const std::string path = tempPath("reopen.jsonl");
    const std::string fp = fingerprintJson({{"scale", "512"}});
    {
        auto j = SweepJournal::open(path, fp);
        ASSERT_TRUE(j.ok());
        j.value().append(sampleRecord(0, "ok"));
    }
    {
        auto j = SweepJournal::open(path, fp);
        ASSERT_TRUE(j.ok());
        j.value().append(sampleRecord(1, "ok"));
    }
    const auto replay = replayJournal(path, fp);
    ASSERT_TRUE(replay.ok()) << replay.error().str();
    EXPECT_EQ(replay.value().records.size(), 2u);
    EXPECT_EQ(replay.value().linesDropped, 0u);
    std::remove(path.c_str());
}

TEST(SweepJournal, TornTailLineIsDroppedNotFatal)
{
    const std::string path = tempPath("torn.jsonl");
    const std::string fp = fingerprintJson({{"scale", "512"}});
    {
        auto j = SweepJournal::open(path, fp);
        ASSERT_TRUE(j.ok());
        j.value().append(sampleRecord(0, "ok"));
    }
    // A SIGKILL mid-append leaves a partial line with no newline.
    appendRaw(path, "{\"index\":1,\"task\":\"SpA");
    const auto replay = replayJournal(path, fp);
    ASSERT_TRUE(replay.ok()) << replay.error().str();
    EXPECT_EQ(replay.value().linesDropped, 1u);
    ASSERT_EQ(replay.value().records.size(), 1u);
    EXPECT_EQ(replay.value().records[0].index, 0u);
    std::remove(path.c_str());
}

TEST(SweepJournal, LastRecordWinsPerIndex)
{
    // A task re-run after a resume appends a second line for the same
    // index; the newest one is authoritative.
    const std::string path = tempPath("lastwins.jsonl");
    const std::string fp = fingerprintJson({{"scale", "512"}});
    {
        auto j = SweepJournal::open(path, fp);
        ASSERT_TRUE(j.ok());
        j.value().append(sampleRecord(0, "failed"));
        j.value().append(sampleRecord(0, "ok"));
    }
    const auto replay = replayJournal(path, fp);
    ASSERT_TRUE(replay.ok());
    ASSERT_EQ(replay.value().records.size(), 1u);
    EXPECT_EQ(replay.value().records[0].status, "ok");
    std::remove(path.c_str());
}

TEST(SweepJournal, FingerprintMismatchIsAnError)
{
    // Resuming under different sweep parameters would splice
    // incompatible results: refuse loudly.
    const std::string path = tempPath("mismatch.jsonl");
    const std::string fp = fingerprintJson({{"scale", "512"}});
    {
        auto j = SweepJournal::open(path, fp);
        ASSERT_TRUE(j.ok());
    }
    const auto replay =
        replayJournal(path, fingerprintJson({{"scale", "128"}}));
    EXPECT_FALSE(replay.ok());
    std::remove(path.c_str());
}

TEST(SweepJournal, MissingFileIsAnError)
{
    const auto replay = replayJournal(
        tempPath("nonexistent.jsonl"), fingerprintJson({}));
    EXPECT_FALSE(replay.ok());
}

TEST(SweepJournal, GarbageHeaderIsAnError)
{
    const std::string path = tempPath("garbage.jsonl");
    appendRaw(path, "not a journal\n");
    const auto replay = replayJournal(path, fingerprintJson({}));
    EXPECT_FALSE(replay.ok());
    std::remove(path.c_str());
}
