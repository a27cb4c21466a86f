/**
 * @file
 * Crash-safe sweep journal behind `tmu_run --journal/--resume`.
 *
 * One JSONL line is appended (and flushed) per finished task, a header
 * line fingerprints the sweep configuration, and replay tolerates a
 * torn tail line — so a SIGKILLed sweep resumes by re-running only the
 * tasks whose lines never landed, reproducing the uninterrupted run's
 * exports byte for byte.
 */

#pragma once

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/statreg.hpp"

namespace tmu::sim {

/** One run's journaled result: name, termination, full snapshot. */
struct TaskRunRecord
{
    std::string run;         //!< "baseline" / "tmu" / phase name
    std::string termination; //!< terminationName() string
    stats::StatSnapshot stats;
};

/** Everything needed to reproduce one task's sweep output exactly. */
struct TaskRecord
{
    std::size_t index = 0; //!< position in the sweep's task list
    std::string task;      //!< workload name
    std::string input;
    std::string status;    //!< "ok" or "failed"
    std::string error;     //!< non-empty only for prepare errors
    std::string output;    //!< the task's rendered stdout block
    bool verified = false;
    std::vector<TaskRunRecord> runs;
};

/** Render @p meta as the canonical fingerprint JSON object. */
std::string
fingerprintJson(const std::vector<std::pair<std::string, std::string>>
                    &fields);

/**
 * Append-only JSONL outcome journal. Thread-safe: append() serializes
 * under a lock and flushes each record, so a SIGKILL can tear at most
 * the line being written — which replay drops.
 */
class SweepJournal
{
  public:
    SweepJournal() = default;
    SweepJournal(SweepJournal &&) noexcept;
    SweepJournal &operator=(SweepJournal &&) noexcept;
    ~SweepJournal();

    /**
     * Open @p path for appending. An empty/new file gets the header
     * line `{"journal":"tmu-sweep","version":1,"fingerprint":...}`
     * first; a non-empty file is continued as-is (the caller has
     * already replayed and fingerprint-checked it).
     */
    static Expected<SweepJournal> open(const std::string &path,
                                       const std::string &fingerprint);

    void append(const TaskRecord &record);

    bool isOpen() const { return file_ != nullptr; }
    void close();

  private:
    std::FILE *file_ = nullptr;
    std::mutex lock_;
};

/** Replay result: recovered records plus tail-damage accounting. */
struct JournalReplay
{
    std::vector<TaskRecord> records; //!< last record wins per index
    std::size_t linesDropped = 0;    //!< torn/corrupt lines ignored
};

/**
 * Read a journal back. The header must carry @p expectFingerprint
 * (resuming under different sweep parameters would splice
 * incompatible results — that is an error, not a tolerance). Torn or
 * corrupt *tail* lines are dropped and counted; a corrupt line in the
 * middle of the file is also dropped, keeping every line that parses.
 */
Expected<JournalReplay>
replayJournal(const std::string &path,
              const std::string &expectFingerprint);

} // namespace tmu::sim
