#include "journal.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/writers.hpp"

namespace tmu::sim {

std::string
fingerprintJson(
    const std::vector<std::pair<std::string, std::string>> &fields)
{
    stats::JsonWriter jw;
    jw.beginObject();
    for (const auto &[k, v] : fields)
        jw.key(k).value(v);
    jw.endObject();
    return jw.str();
}

namespace {

/**
 * Stat values travel as text so they replay bit-exact: u64 in decimal,
 * f64 as C hexfloat ("%a", which strtod parses back losslessly,
 * including inf/nan spellings).
 */
std::string
entryValueText(const stats::SnapshotEntry &e)
{
    char buf[64];
    if (e.kind == stats::StatKind::U64) {
        std::snprintf(buf, sizeof buf, "%" PRIu64, e.u);
    } else {
        std::snprintf(buf, sizeof buf, "%a", e.f);
    }
    return buf;
}

std::string
serializeRecord(const TaskRecord &r)
{
    stats::JsonWriter jw;
    jw.beginObject();
    jw.key("index").value(static_cast<std::uint64_t>(r.index));
    jw.key("task").value(r.task);
    jw.key("input").value(r.input);
    jw.key("status").value(r.status);
    jw.key("error").value(r.error);
    jw.key("verified").value(r.verified);
    jw.key("output").value(r.output);
    jw.key("runs").beginArray();
    for (const TaskRunRecord &run : r.runs) {
        jw.beginObject();
        jw.key("run").value(run.run);
        jw.key("termination").value(run.termination);
        jw.key("stats").beginArray();
        for (const stats::SnapshotEntry &e : run.stats.entries) {
            jw.beginArray();
            jw.value(e.name);
            jw.value(e.kind == stats::StatKind::U64 ? "u" : "f");
            jw.value(entryValueText(e));
            jw.value(e.desc);
            jw.endArray();
        }
        jw.endArray();
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    return jw.str();
}

Expected<std::uint64_t>
memberU64(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return TMU_ERR(Errc::Corrupted, "missing member '%s'", key);
    return v->asU64();
}

Expected<std::string>
memberString(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    if (!v || !v->isString())
        return TMU_ERR(Errc::Corrupted,
                       "missing string member '%s'", key);
    return v->asString();
}

Expected<TaskRecord>
recordFromJson(const json::Value &v)
{
    if (!v.isObject())
        return TMU_ERR(Errc::Corrupted, "journal line is not an object");
    TaskRecord r;
    auto index = memberU64(v, "index");
    if (!index)
        return std::move(index.error());
    r.index = static_cast<std::size_t>(*index);

    for (auto [field, dst] :
         {std::pair<const char *, std::string *>{"task", &r.task},
          {"input", &r.input},
          {"status", &r.status},
          {"error", &r.error},
          {"output", &r.output}}) {
        auto s = memberString(v, field);
        if (!s)
            return std::move(s.error());
        *dst = std::move(*s);
    }
    const json::Value *verified = v.find("verified");
    if (!verified)
        return TMU_ERR(Errc::Corrupted, "missing member 'verified'");
    r.verified = verified->asBool();

    const json::Value *runs = v.find("runs");
    if (!runs || !runs->isArray())
        return TMU_ERR(Errc::Corrupted, "missing array member 'runs'");
    for (const json::Value &rv : runs->items) {
        if (!rv.isObject())
            return TMU_ERR(Errc::Corrupted, "run is not an object");
        TaskRunRecord run;
        auto name = memberString(rv, "run");
        if (!name)
            return std::move(name.error());
        run.run = std::move(*name);
        auto term = memberString(rv, "termination");
        if (!term)
            return std::move(term.error());
        run.termination = std::move(*term);
        const json::Value *stats = rv.find("stats");
        if (!stats || !stats->isArray())
            return TMU_ERR(Errc::Corrupted,
                           "missing array member 'stats'");
        for (const json::Value &ev : stats->items) {
            if (!ev.isArray() || ev.items.size() != 4 ||
                !ev.items[0].isString() || !ev.items[1].isString() ||
                !ev.items[2].isString() || !ev.items[3].isString()) {
                return TMU_ERR(Errc::Corrupted,
                               "stat entry is not [name,kind,"
                               "value,desc]");
            }
            stats::SnapshotEntry e;
            e.name = ev.items[0].asString();
            e.desc = ev.items[3].asString();
            const std::string &kind = ev.items[1].asString();
            const std::string &text = ev.items[2].asString();
            char *end = nullptr;
            errno = 0;
            if (kind == "u") {
                e.kind = stats::StatKind::U64;
                e.u = std::strtoull(text.c_str(), &end, 10);
            } else if (kind == "f") {
                e.kind = stats::StatKind::F64;
                e.f = std::strtod(text.c_str(), &end);
            } else {
                return TMU_ERR(Errc::Corrupted,
                               "unknown stat kind '%s'", kind.c_str());
            }
            if (errno != 0 || !end || *end != '\0') {
                return TMU_ERR(Errc::Corrupted,
                               "bad stat value '%s'", text.c_str());
            }
            run.stats.entries.push_back(std::move(e));
        }
        r.runs.push_back(std::move(run));
    }
    return r;
}

std::string
headerLine(const std::string &fingerprint)
{
    stats::JsonWriter jw;
    jw.beginObject();
    jw.key("journal").value("tmu-sweep");
    jw.key("version").value(1);
    jw.key("fingerprint").value(fingerprint);
    jw.endObject();
    return jw.str();
}

} // namespace

SweepJournal::SweepJournal(SweepJournal &&other) noexcept
    : file_(other.file_)
{
    other.file_ = nullptr;
}

SweepJournal &
SweepJournal::operator=(SweepJournal &&other) noexcept
{
    if (this != &other) {
        close();
        file_ = other.file_;
        other.file_ = nullptr;
    }
    return *this;
}

SweepJournal::~SweepJournal() { close(); }

void
SweepJournal::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

Expected<SweepJournal>
SweepJournal::open(const std::string &path,
                   const std::string &fingerprint)
{
    // "a" keeps every existing byte: a resumed journal is continued,
    // never rewritten, so a second crash still has the earlier lines.
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        return TMU_ERR(Errc::IoError, "cannot open journal '%s': %s",
                       path.c_str(), std::strerror(errno));
    }
    SweepJournal j;
    j.file_ = f;
    std::fseek(f, 0, SEEK_END); // "a" leaves the position unspecified
    if (std::ftell(f) == 0) {
        const std::string header = headerLine(fingerprint);
        std::fwrite(header.data(), 1, header.size(), f);
        std::fputc('\n', f);
        std::fflush(f);
    }
    return j;
}

void
SweepJournal::append(const TaskRecord &record)
{
    if (!file_)
        return;
    const std::string line = serializeRecord(record);
    std::lock_guard<std::mutex> guard(lock_);
    // One write + flush per record: a crash tears at most this line,
    // and replay drops a line that does not parse.
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
}

Expected<JournalReplay>
replayJournal(const std::string &path,
              const std::string &expectFingerprint)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        return TMU_ERR(Errc::IoError, "cannot read journal '%s': %s",
                       path.c_str(), std::strerror(errno));
    }
    std::string content;
    char buf[1 << 16];
    for (;;) {
        const std::size_t n = std::fread(buf, 1, sizeof buf, f);
        content.append(buf, n);
        if (n < sizeof buf)
            break;
    }
    std::fclose(f);

    JournalReplay replay;
    if (content.empty())
        return replay; // brand-new journal: nothing to skip

    std::vector<std::pair<std::size_t, TaskRecord>> byLine;
    bool sawHeader = false;
    std::size_t pos = 0;
    while (pos < content.size()) {
        std::size_t eol = content.find('\n', pos);
        const bool torn = eol == std::string::npos; // no final newline
        if (torn)
            eol = content.size();
        const std::string line = content.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;

        auto parsed = json::parse(line);
        if (!parsed) {
            if (!sawHeader) {
                return TMU_ERR(Errc::Corrupted,
                               "journal '%s' header does not parse",
                               path.c_str());
            }
            ++replay.linesDropped;
            if (!torn) {
                TMU_WARN("journal %s: dropping corrupt line",
                         path.c_str());
            }
            continue;
        }
        if (!sawHeader) {
            const json::Value *magic = parsed->find("journal");
            const json::Value *version = parsed->find("version");
            const json::Value *fp = parsed->find("fingerprint");
            if (!magic || magic->asString() != "tmu-sweep" ||
                !version || !version->asU64() ||
                *version->asU64() != 1 || !fp) {
                return TMU_ERR(Errc::Corrupted,
                               "'%s' is not a tmu-sweep v1 journal",
                               path.c_str());
            }
            if (fp->asString() != expectFingerprint) {
                return TMU_ERR(
                    Errc::ConfigError,
                    "journal '%s' was written by a different sweep "
                    "configuration; refusing to resume (journal %s, "
                    "this run %s)",
                    path.c_str(), fp->asString().c_str(),
                    expectFingerprint.c_str());
            }
            sawHeader = true;
            continue;
        }
        auto record = recordFromJson(*parsed);
        if (!record) {
            ++replay.linesDropped;
            TMU_WARN("journal %s: dropping malformed record (%s)",
                     path.c_str(), record.error().str().c_str());
            continue;
        }
        byLine.emplace_back(record->index, std::move(*record));
    }
    if (!sawHeader) {
        return TMU_ERR(Errc::Corrupted,
                       "journal '%s' has no header line", path.c_str());
    }

    // Last record wins per task index (a task re-run after a resume
    // appends a fresh line rather than editing the old one).
    for (auto &[index, record] : byLine) {
        bool replaced = false;
        for (TaskRecord &existing : replay.records) {
            if (existing.index == index) {
                existing = std::move(record);
                replaced = true;
                break;
            }
        }
        if (!replaced)
            replay.records.push_back(std::move(record));
    }
    return replay;
}

} // namespace tmu::sim
