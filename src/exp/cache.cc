#include "exp/cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/log.hh"

namespace asap
{

namespace
{

/** Bump when a change alters simulation results (invalidates disk
 *  entries written by older code).
 *
 *  v2: media-model subsystem (src/media/) — results gained media
 *  byte/queue-delay/bank-occupancy and XPBuffer hit/miss counters,
 *  and the key gained the media profile + override knobs.
 *
 *  v3: results gained eventsExecuted (kernel events per run, a
 *  deterministic stat); entries written by v2 would deserialize with
 *  it silently zero.
 *
 *  v4: the event kernel's same-tick tie-break changed from global
 *  scheduling order to (creator-domain send counter, domain id) so
 *  a domain-parallel engine could reproduce it exactly; same-tick
 *  cross-domain orderings (and therefore some stats) shift. That
 *  engine has since been deleted, but the key stays: it defines the
 *  results every later salt caches (src/sim/README.md).
 *
 *  v5: the serving subsystem (src/serve/) — results gained the
 *  persist-latency tail fields (persistSamples/P50/P99/P999/Max) and
 *  serveRequests; the key conditionally gained mediaPerMc. Entries
 *  written by v4 would deserialize with them silently zero.
 *
 *  v6: the crash-state permuter (src/permute/) — JobKind::Permute
 *  jobs key the enumeration knobs (bound/seed/fault/state) and
 *  results gained the coverage fields (vStatesChecked &c.). Run and
 *  Crash keys are unchanged, but the bump keeps a v5 reader from
 *  choking on permute entries in a shared cache dir.
 *
 *  v7: the flat CheckerIndex reports the first violation in
 *  ascending line / (thread, epoch) / parent order instead of hash
 *  iteration order, so a verdict message can name a different (equally
 *  real) violation. Every other verdict field is unchanged. */
constexpr const char *kCodeSalt = "asap-sim-v7";

/** Age beyond which an abandoned temp file is certainly garbage (no
 *  writer holds an insert open for minutes). */
constexpr double kStaleTmpSeconds = 15 * 60.0;

} // namespace

const char *
cacheCodeSalt()
{
    return kCodeSalt;
}

std::string
describeJob(const ExperimentJob &job)
{
    const SimConfig &c = job.cfg;
    const WorkloadParams &p = job.params;
    std::ostringstream os;
    os << "salt=" << kCodeSalt << '\n'
       << "workload=" << job.workload << '\n'
       // Every result-affecting SimConfig knob, in declaration
       // order. A knob missing here would alias configs that differ
       // only in that knob — keep in sync with sim/config.hh.
       << "numCores=" << c.numCores << '\n'
       << "numMCs=" << c.numMCs << '\n'
       << "model=" << toString(c.model) << '\n'
       << "persistency=" << toString(c.persistency) << '\n'
       << "l1Latency=" << c.l1Latency << '\n'
       << "l2Latency=" << c.l2Latency << '\n'
       << "llcLatency=" << c.llcLatency << '\n'
       << "cacheToCacheLatency=" << c.cacheToCacheLatency << '\n'
       << "l1Sets=" << c.l1Sets << " l1Ways=" << c.l1Ways << '\n'
       << "l2Sets=" << c.l2Sets << " l2Ways=" << c.l2Ways << '\n'
       << "llcSets=" << c.llcSets << " llcWays=" << c.llcWays << '\n'
       << "media=" << c.mediaProfile << '\n'
       << "mediaReadLatency=" << c.mediaReadLatency << '\n'
       << "mediaWriteLatency=" << c.mediaWriteLatency << '\n'
       << "mediaBanks=" << c.mediaBanks << '\n'
       << "mediaWriteGBps=" << c.mediaWriteGBps << '\n'
       << "dramLatency=" << c.dramLatency << '\n'
       << "pmReadLatency=" << c.pmReadLatency << '\n'
       << "pmWriteLatency=" << c.pmWriteLatency << '\n'
       << "wpqEntries=" << c.wpqEntries << '\n'
       << "wpqCombineWindow=" << c.wpqCombineWindow << '\n'
       << "nvmBanks=" << c.nvmBanks << '\n'
       << "interleaveBytes=" << c.interleaveBytes << '\n'
       << "xpBufferLines=" << c.xpBufferLines << '\n'
       << "xpBufferHitLatency=" << c.xpBufferHitLatency << '\n'
       << "pbEntries=" << c.pbEntries << '\n'
       << "etEntries=" << c.etEntries << '\n'
       << "rtEntries=" << c.rtEntries << '\n'
       << "pbFlushLatency=" << c.pbFlushLatency << '\n'
       << "pbMaxInflight=" << c.pbMaxInflight << '\n'
       << "clwbMaxInflight=" << c.clwbMaxInflight << '\n'
       << "mcMessageLatency=" << c.mcMessageLatency << '\n'
       << "interCoreLatency=" << c.interCoreLatency << '\n'
       << "hopsPollPeriod=" << c.hopsPollPeriod << '\n'
       << "hopsPollCost=" << c.hopsPollCost << '\n'
       << "eadrDfenceCost=" << c.eadrDfenceCost << '\n'
       << "coreIssueWidth=" << c.coreIssueWidth << '\n'
       << "seed=" << c.seed << '\n'
       << "maxRunTicks=" << c.maxRunTicks << '\n'
       << "opsPerThread=" << p.opsPerThread << '\n'
       << "keySpace=" << p.keySpace << '\n'
       << "valueBytes=" << p.valueBytes << '\n'
       << "updatePct=" << p.updatePct << '\n'
       << "paramSeed=" << p.seed << '\n';
    // Appended only when set so every homogeneous-media key (and the
    // disk caches written before heterogeneous media existed) stays
    // unchanged.
    if (!c.mediaPerMc.empty())
        os << "mediaPerMc=" << c.mediaPerMc << '\n';
    // Appended only for crash jobs so Run keys (and therefore every
    // disk cache written before crash jobs existed) stay unchanged.
    if (job.kind == JobKind::Crash) {
        os << "kind=" << toString(job.kind) << '\n'
           << "crashTick=" << job.crashTick << '\n';
    }
    // Permute jobs additionally key the enumeration knobs: a tighter
    // bound, another sampling seed, a fault hook or a single-state
    // repro all produce different verdicts and must not alias.
    if (job.kind == JobKind::Permute) {
        os << "kind=" << toString(job.kind) << '\n'
           << "crashTick=" << job.crashTick << '\n'
           << "permuteBound=" << job.permuteBound << '\n'
           << "permuteSeed=" << job.permuteSeed << '\n'
           << "permuteFault="
           << (job.permuteFault.empty() ? "-" : job.permuteFault) << '\n'
           << "permuteState="
           << (job.permuteState.empty() ? "-" : job.permuteState) << '\n';
    }
    return os.str();
}

std::string
jobKey(const ExperimentJob &job)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "exp-%016llx",
                  static_cast<unsigned long long>(
                      stableHash64(describeJob(job))));
    return buf;
}

namespace
{

using G = FieldGroup;

constexpr ResultField kResultFields[] = {
    {"workload", G::CacheOnly, &RunResult::workload},
    {"model", G::CacheOnly, &RunResult::model},
    {"persistency", G::CacheOnly, &RunResult::persistency},
    {"cores", G::CacheOnly, &RunResult::cores},
    {"runTicks", G::Core, &RunResult::runTicks},
    {"pmWrites", G::Core, &RunResult::pmWrites},
    {"pmReads", G::Core, &RunResult::pmReads},
    {"cyclesBlocked", G::Core, &RunResult::cyclesBlocked},
    {"cyclesStalled", G::Core, &RunResult::cyclesStalled},
    {"dfenceStalled", G::Core, &RunResult::dfenceStalled},
    {"sfenceStalled", G::Core, &RunResult::sfenceStalled},
    {"entriesInserted", G::Core, &RunResult::entriesInserted},
    {"epochs", G::Core, &RunResult::epochs},
    {"crossDeps", G::Core, &RunResult::crossDeps},
    {"totSpecWrites", G::Core, &RunResult::totSpecWrites},
    {"totalUndo", G::Core, &RunResult::totalUndo},
    {"totalDelay", G::Core, &RunResult::totalDelay},
    {"nacks", G::Core, &RunResult::nacks},
    {"rtMaxOccupancy", G::Core, &RunResult::rtMaxOccupancy},
    {"pbOccMean", G::Core, &RunResult::pbOccMean},
    {"pbOccP99", G::Core, &RunResult::pbOccP99},
    {"wpqCoalesced", G::Core, &RunResult::wpqCoalesced},
    {"suppressedWrites", G::Core, &RunResult::suppressedWrites},
    {"media", G::CacheOnly, &RunResult::media},
    {"xpHits", G::Media, &RunResult::xpHits},
    {"xpMisses", G::Media, &RunResult::xpMisses},
    {"mediaBytesWritten", G::Media, &RunResult::mediaBytesWritten},
    {"mediaQueueDelayTicks", G::Media, &RunResult::mediaQueueDelayTicks},
    {"mediaBankBusyTicks", G::Media, &RunResult::mediaBankBusyTicks},
    {"eventsExecuted", G::CacheOnly, &RunResult::eventsExecuted},
    {"persistSamples", G::Serve, &RunResult::persistSamples},
    {"persistP50", G::Serve, &RunResult::persistP50},
    {"persistP99", G::Serve, &RunResult::persistP99},
    {"persistP999", G::Serve, &RunResult::persistP999},
    {"persistMax", G::Serve, &RunResult::persistMax},
    {"serveRequests", G::Serve, &RunResult::serveRequests},
};

/** Parse all of @p text as a number (no leading blank or "+", no
 *  trailing junk). */
template <class T>
bool
readNumber(const std::string &text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return !text.empty() && ec == std::errc() && ptr == end;
}

/** Parse @p text into field @p f of @p r; false if malformed. */
bool
readField(const std::string &text, const ResultField &f, RunResult &r)
{
    return std::visit(
        [&](auto member) {
            auto &v = r.*member;
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::string>) {
                v = text == "-" ? "" : text;
                return !text.empty();
            } else if constexpr (std::is_same_v<T, ModelKind>) {
                return tryParseModelKind(text, v);
            } else if constexpr (std::is_same_v<T, PersistencyModel>) {
                return tryParsePersistencyModel(text, v);
            } else {
                return readNumber(text, v);
            }
        },
        f.member);
}

const ResultField *
findResultField(const std::string &name)
{
    for (const ResultField &f : kResultFields) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

void
appendResultFields(std::ostringstream &os, const RunResult &r)
{
    for (const ResultField &f : kResultFields) {
        os << f.name << ' ';
        writeField(os, f, r);
        os << '\n';
    }
}

bool
readFlag(const std::string &text, bool &out)
{
    if (text != "0" && text != "1")
        return false;
    out = text == "1";
    return true;
}

/**
 * Parse verdict line @p name into @p v.
 * @return nullopt if @p name is no verdict field, else whether
 *         @p text was well-formed
 */
std::optional<bool>
readVerdictField(const std::string &name, const std::string &text,
                 CrashVerdict &v)
{
    if (name == "vConsistent") return readFlag(text, v.consistent);
    if (name == "vCrashTick") return readNumber(text, v.crashTick);
    if (name == "vActualTick") return readNumber(text, v.actualTick);
    if (name == "vStoresLogged") return readNumber(text, v.storesLogged);
    if (name == "vLinesSurvived")
        return readNumber(text, v.linesSurvived);
    if (name == "vUndoReplayed") return readNumber(text, v.undoReplayed);
    if (name == "vAdrDrainWrites")
        return readNumber(text, v.adrDrainWrites);
    if (name == "vCommitted") {
        std::istringstream is(text);
        std::size_t n = 0;
        if (!(is >> n) || n > 4096)
            return false;
        v.committedUpTo.resize(n);
        for (std::uint64_t &c : v.committedUpTo)
            is >> c;
        return bool(is) && (is >> std::ws).eof();
    }
    if (name == "vStatesChecked")
        return readNumber(text, v.statesChecked);
    if (name == "vStatesReachable")
        return readNumber(text, v.statesReachable);
    if (name == "vDistinctStates")
        return readNumber(text, v.distinctStates);
    if (name == "vPermuteAtoms") return readNumber(text, v.permuteAtoms);
    if (name == "vTruncated") return readFlag(text, v.truncated);
    if (name == "vInconsistentStates")
        return readNumber(text, v.inconsistentStates);
    if (name == "vFirstBadState") {
        v.firstBadState = text;
        return !text.empty();
    }
    if (name == "vMessage") {
        v.message = text;
        return !text.empty();
    }
    return std::nullopt;
}

/** The field names of serialized entry @p text, sorted (codeSalt and
 *  the end marker excluded). */
std::vector<std::string>
fieldNames(const std::string &text)
{
    std::vector<std::string> names;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::string name = line.substr(0, line.find(' '));
        if (name != "codeSalt" && name != "end")
            names.push_back(std::move(name));
    }
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace

std::span<const ResultField>
resultFields()
{
    return kResultFields;
}

void
writeField(std::ostream &os, const ResultField &f, const RunResult &r)
{
    std::visit(
        [&](auto member) {
            const auto &v = r.*member;
            using T = std::decay_t<decltype(v)>;
            // Whitespace-delimited format: an empty string would leave
            // the value slot blank, so stand in "-".
            if constexpr (std::is_same_v<T, std::string>)
                os << (v.empty() ? "-" : v);
            else if constexpr (std::is_enum_v<T>)
                os << toString(v);
            else
                os << v;
        },
        f.member);
}

std::string
serializeResult(const RunResult &r)
{
    std::ostringstream os;
    appendResultFields(os, r);
    os << "end 1\n";
    return os.str();
}

std::string
serializeEntry(const CachedResult &e)
{
    // Every disk entry leads with the writer's code salt. The salt is
    // also hashed into the key, so a well-behaved writer never creates
    // a mismatching file — the explicit field catches entries copied
    // between cache directories by hand and describeJob() edits that
    // forgot the salt bump, instead of silently trusting them.
    std::ostringstream os;
    os << "codeSalt " << kCodeSalt << '\n';
    if (e.kind == JobKind::Run) {
        appendResultFields(os, e.run);
        os << "end 1\n";
        return os.str();
    }
    os << "kind " << toString(e.kind) << '\n';
    appendResultFields(os, e.run);
    const CrashVerdict &v = e.verdict;
    os << "vConsistent " << (v.consistent ? 1 : 0) << '\n'
       << "vCrashTick " << v.crashTick << '\n'
       << "vActualTick " << v.actualTick << '\n'
       << "vStoresLogged " << v.storesLogged << '\n'
       << "vLinesSurvived " << v.linesSurvived << '\n'
       << "vUndoReplayed " << v.undoReplayed << '\n'
       << "vAdrDrainWrites " << v.adrDrainWrites << '\n';
    os << "vCommitted " << v.committedUpTo.size();
    for (std::uint64_t c : v.committedUpTo)
        os << ' ' << c;
    os << '\n';
    // Permuter coverage; all-zero for plain Crash entries, so they
    // are only written for Permute jobs.
    if (e.kind == JobKind::Permute) {
        os << "vStatesChecked " << v.statesChecked << '\n'
           << "vStatesReachable " << v.statesReachable << '\n'
           << "vDistinctStates " << v.distinctStates << '\n'
           << "vPermuteAtoms " << v.permuteAtoms << '\n'
           << "vTruncated " << (v.truncated ? 1 : 0) << '\n'
           << "vInconsistentStates " << v.inconsistentStates << '\n';
        if (!v.firstBadState.empty())
            os << "vFirstBadState " << v.firstBadState << '\n';
    }
    // The violation message may contain spaces: rest-of-line field,
    // written last before the end marker.
    if (!v.message.empty())
        os << "vMessage " << v.message << '\n';
    os << "end 1\n";
    return os.str();
}

bool
deserializeEntry(const std::string &text, CachedResult &out,
                 std::string *why)
{
    const auto reject = [why](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    // One "name value" field per line; the value runs to the end of
    // the line (only vMessage and vCommitted contain spaces).
    std::istringstream is(text);
    std::string line;
    CachedResult e;
    std::vector<std::string> seen;
    bool complete = false;
    while (std::getline(is, line)) {
        const std::size_t space = line.find(' ');
        const std::string name = line.substr(0, space);
        const std::string value =
            space == std::string::npos ? "" : line.substr(space + 1);
        if (name == "end") {
            complete = true;
            break;
        }
        bool ok = true;
        if (name == "codeSalt") {
            // Absent in pre-hardening entries: those were written
            // under the same key hash, so absence implies a match.
            if (value != kCodeSalt) {
                return reject("code-salt mismatch (entry '" + value +
                              "', running '" + kCodeSalt + "')");
            }
            continue;
        } else if (name == "kind") {
            ok = tryParseJobKind(value, e.kind);
        } else if (const ResultField *f = findResultField(name)) {
            ok = readField(value, *f, e.run);
        } else if (const std::optional<bool> read =
                       readVerdictField(name, value, e.verdict)) {
            ok = *read;
        } else {
            // Written by newer code than this reader.
            return reject("unknown field '" + name + "'");
        }
        if (!ok)
            return reject("malformed value '" + value + "' for field '" +
                          name + "'");
        seen.push_back(name);
    }
    if (!complete)
        return reject("truncated entry (no end marker)");
    // Exactly the lines this entry's kind writes: re-render what was
    // read and compare field names, so a dropped line (or one that
    // belongs to another kind) rejects the entry instead of reading
    // as zero.
    std::sort(seen.begin(), seen.end());
    const std::vector<std::string> want = fieldNames(serializeEntry(e));
    if (seen != want) {
        std::vector<std::string> missing, extra;
        std::set_difference(want.begin(), want.end(), seen.begin(),
                            seen.end(), std::back_inserter(missing));
        std::set_difference(seen.begin(), seen.end(), want.begin(),
                            want.end(), std::back_inserter(extra));
        return reject(!missing.empty()
                          ? "missing field '" + missing.front() + "'"
                          : "unexpected field '" + extra.front() +
                                "' in a " + toString(e.kind) + " entry");
    }
    out = std::move(e);
    return true;
}

bool
deserializeResult(const std::string &text, RunResult &out)
{
    CachedResult e;
    if (!deserializeEntry(text, e) || e.kind != JobKind::Run)
        return false;
    out = std::move(e.run);
    return true;
}

std::size_t
cleanStaleCacheTmp(const std::string &dir, double older_than_seconds)
{
    namespace fs = std::filesystem;
    std::size_t removed = 0;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    const auto age = std::chrono::duration_cast<
        fs::file_time_type::duration>(
        std::chrono::duration<double>(older_than_seconds));
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp.") == std::string::npos)
            continue;
        const auto written = fs::last_write_time(entry.path(), ec);
        if (ec || now - written < age)
            continue;
        if (fs::remove(entry.path(), ec) && !ec)
            ++removed;
    }
    return removed;
}

ResultCache::ResultCache(std::string disk_dir) : dir(std::move(disk_dir))
{
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            warn("cannot create cache dir ", dir, ": ", ec.message(),
                 "; disk tier disabled");
            dir.clear();
        }
    }
    if (!dir.empty()) {
        // Sweep up temp files from writers that died mid-insert (a
        // killed shard, say). Recent ones may belong to a live
        // concurrent writer, so only old droppings go.
        const std::size_t n = cleanStaleCacheTmp(dir, kStaleTmpSeconds);
        if (n > 0)
            warn("removed ", n, " stale cache temp file(s) from ", dir);
    }
}

std::string
ResultCache::diskPath(const std::string &key) const
{
    return dir + "/" + key + ".result";
}

namespace
{

/** Whole-file read; false if @p path is absent or unreadable. */
bool
readFile(const std::string &path, std::string &text)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
    return true;
}

/**
 * Unique temp name per thread, fsync, then atomic rename: after a
 * power cut the file is either absent or complete and durable —
 * multi-host sweeps trust remote entries without re-checking. Best
 * effort: on any failure the entry is simply not cached.
 */
void
writeDurably(const std::string &path, const std::string &text)
{
    std::ostringstream tmp;
    tmp << path << ".tmp." << std::this_thread::get_id();
    std::FILE *out = std::fopen(tmp.str().c_str(), "w");
    if (!out)
        return;
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), out) == text.size() &&
        std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
    std::fclose(out);
    std::error_code ec;
    if (wrote)
        std::filesystem::rename(tmp.str(), path, ec);
    if (!wrote || ec)
        std::filesystem::remove(tmp.str(), ec);
}

/** Header line every aux-tier file leads with. */
std::string
auxStamp()
{
    return std::string("codeSalt ") + kCodeSalt + "\n";
}

} // namespace

template <class T, class Decode>
bool
ResultCache::lookupIn(std::unordered_map<std::string, T> &map,
                      const std::string &key, const std::string &path,
                      Decode decode, TierCounters count, T &out)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = map.find(key);
        if (it != map.end()) {
            out = it->second;
            ++(counters.*count.memHit);
            return true;
        }
    }
    std::string text;
    if (!dir.empty() && readFile(path, text)) {
        T value;
        std::string why;
        if (decode(text, value, why)) {
            std::lock_guard<std::mutex> lock(mu);
            map.emplace(key, value);
            ++(counters.*count.diskHit);
            out = std::move(value);
            return true;
        }
        // A rejected entry counts as a miss, but say why — a
        // silently re-simulating sweep looks identical to a cold
        // one, and a salt mismatch means someone's cache dir is
        // shared across incompatible builds.
        warn("ignoring cache entry ", path, ": ", why);
    }
    std::lock_guard<std::mutex> lock(mu);
    ++(counters.*count.miss);
    return false;
}

bool
ResultCache::lookup(const std::string &key, CachedResult &out)
{
    return lookupIn(
        mem, key, diskPath(key),
        [](const std::string &text, CachedResult &e, std::string &why) {
            return deserializeEntry(text, e, &why);
        },
        {&CacheStats::memHits, &CacheStats::diskHits,
         &CacheStats::misses},
        out);
}

void
ResultCache::insert(const std::string &key, const CachedResult &e)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        mem[key] = e;
    }
    if (!dir.empty())
        writeDurably(diskPath(key), serializeEntry(e));
}

std::string
ResultCache::auxPath(const std::string &key) const
{
    return dir + "/" + key + ".aux";
}

bool
ResultCache::lookupAux(const std::string &key, std::string &out)
{
    return lookupIn(
        auxMem, key, auxPath(key),
        [](const std::string &text, std::string &body, std::string &why) {
            // A stamp mismatch means the text was derived by an
            // incompatible code version.
            const std::string stamp = auxStamp();
            if (text.compare(0, stamp.size(), stamp) != 0) {
                why = "code-salt mismatch";
                return false;
            }
            body = text.substr(stamp.size());
            return true;
        },
        {&CacheStats::auxHits, &CacheStats::auxHits,
         &CacheStats::auxMisses},
        out);
}

void
ResultCache::insertAux(const std::string &key, const std::string &text)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auxMem[key] = text;
    }
    if (!dir.empty())
        writeDurably(auxPath(key), auxStamp() + text);
}

bool
ResultCache::lookup(const std::string &key, RunResult &out)
{
    CachedResult e;
    if (!lookup(key, e))
        return false;
    out = std::move(e.run);
    return true;
}

void
ResultCache::insert(const std::string &key, const RunResult &r)
{
    CachedResult e;
    e.kind = JobKind::Run;
    e.run = r;
    insert(key, e);
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    mem.clear();
    auxMem.clear();
    counters = CacheStats{};
}

ResultCache &
processCache()
{
    static ResultCache cache = [] {
        const char *dir = std::getenv("ASAP_CACHE_DIR");
        return ResultCache(dir ? dir : "");
    }();
    return cache;
}

} // namespace asap
