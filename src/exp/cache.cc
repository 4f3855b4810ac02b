#include "exp/cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

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

void
appendResultFields(std::ostringstream &os, const RunResult &r)
{
    os << "workload " << r.workload << '\n'
       << "model " << toString(r.model) << '\n'
       << "persistency " << toString(r.persistency) << '\n'
       << "cores " << r.cores << '\n'
       << "runTicks " << r.runTicks << '\n'
       << "pmWrites " << r.pmWrites << '\n'
       << "pmReads " << r.pmReads << '\n'
       << "cyclesBlocked " << r.cyclesBlocked << '\n'
       << "cyclesStalled " << r.cyclesStalled << '\n'
       << "dfenceStalled " << r.dfenceStalled << '\n'
       << "sfenceStalled " << r.sfenceStalled << '\n'
       << "entriesInserted " << r.entriesInserted << '\n'
       << "epochs " << r.epochs << '\n'
       << "crossDeps " << r.crossDeps << '\n'
       << "totSpecWrites " << r.totSpecWrites << '\n'
       << "totalUndo " << r.totalUndo << '\n'
       << "totalDelay " << r.totalDelay << '\n'
       << "nacks " << r.nacks << '\n'
       << "rtMaxOccupancy " << r.rtMaxOccupancy << '\n'
       << "pbOccMean " << r.pbOccMean << '\n'
       << "pbOccP99 " << r.pbOccP99 << '\n'
       << "wpqCoalesced " << r.wpqCoalesced << '\n'
       << "suppressedWrites " << r.suppressedWrites << '\n'
       // Whitespace-delimited format: an empty profile would leave
       // the value slot blank and desync the reader, so stand in "-".
       << "media " << (r.media.empty() ? "-" : r.media) << '\n'
       << "xpHits " << r.xpHits << '\n'
       << "xpMisses " << r.xpMisses << '\n'
       << "mediaBytesWritten " << r.mediaBytesWritten << '\n'
       << "mediaQueueDelayTicks " << r.mediaQueueDelayTicks << '\n'
       << "mediaBankBusyTicks " << r.mediaBankBusyTicks << '\n'
       // hostNs is deliberately absent: host wall time is
       // non-deterministic and must never round-trip through a cache.
       << "eventsExecuted " << r.eventsExecuted << '\n'
       << "persistSamples " << r.persistSamples << '\n'
       << "persistP50 " << r.persistP50 << '\n'
       << "persistP99 " << r.persistP99 << '\n'
       << "persistP999 " << r.persistP999 << '\n'
       << "persistMax " << r.persistMax << '\n'
       << "serveRequests " << r.serveRequests << '\n';
}

} // namespace

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
    // are only written for Permute jobs (readers default them to 0).
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
    std::istringstream is(text);
    std::string field;
    CachedResult e;
    RunResult &r = e.run;
    CrashVerdict &v = e.verdict;
    bool complete = false;
    while (is >> field) {
        if (field == "codeSalt") {
            // Absent in pre-hardening entries: those were written
            // under the same key hash, so absence implies a match.
            std::string salt;
            is >> salt;
            if (salt != kCodeSalt) {
                return reject("code-salt mismatch (entry '" + salt +
                              "', running '" + kCodeSalt + "')");
            }
        }
        else if (field == "kind") {
            std::string k;
            is >> k;
            if (k == "run") e.kind = JobKind::Run;
            else if (k == "crash") e.kind = JobKind::Crash;
            else if (k == "permute") e.kind = JobKind::Permute;
            else return reject("unknown job kind '" + k + "'");
        }
        else if (field == "workload") is >> r.workload;
        else if (field == "model") {
            std::string m;
            is >> m;
            r.model = parseModelKind(m);
        } else if (field == "persistency") {
            std::string m;
            is >> m;
            r.persistency = parsePersistencyModel(m);
        }
        else if (field == "cores") is >> r.cores;
        else if (field == "runTicks") is >> r.runTicks;
        else if (field == "pmWrites") is >> r.pmWrites;
        else if (field == "pmReads") is >> r.pmReads;
        else if (field == "cyclesBlocked") is >> r.cyclesBlocked;
        else if (field == "cyclesStalled") is >> r.cyclesStalled;
        else if (field == "dfenceStalled") is >> r.dfenceStalled;
        else if (field == "sfenceStalled") is >> r.sfenceStalled;
        else if (field == "entriesInserted") is >> r.entriesInserted;
        else if (field == "epochs") is >> r.epochs;
        else if (field == "crossDeps") is >> r.crossDeps;
        else if (field == "totSpecWrites") is >> r.totSpecWrites;
        else if (field == "totalUndo") is >> r.totalUndo;
        else if (field == "totalDelay") is >> r.totalDelay;
        else if (field == "nacks") is >> r.nacks;
        else if (field == "rtMaxOccupancy") is >> r.rtMaxOccupancy;
        else if (field == "pbOccMean") is >> r.pbOccMean;
        else if (field == "pbOccP99") is >> r.pbOccP99;
        else if (field == "wpqCoalesced") is >> r.wpqCoalesced;
        else if (field == "suppressedWrites") is >> r.suppressedWrites;
        else if (field == "media") {
            is >> r.media;
            if (r.media == "-") r.media.clear();
        }
        else if (field == "xpHits") is >> r.xpHits;
        else if (field == "xpMisses") is >> r.xpMisses;
        else if (field == "mediaBytesWritten") is >> r.mediaBytesWritten;
        else if (field == "mediaQueueDelayTicks")
            is >> r.mediaQueueDelayTicks;
        else if (field == "mediaBankBusyTicks")
            is >> r.mediaBankBusyTicks;
        else if (field == "eventsExecuted") is >> r.eventsExecuted;
        else if (field == "persistSamples") is >> r.persistSamples;
        else if (field == "persistP50") is >> r.persistP50;
        else if (field == "persistP99") is >> r.persistP99;
        else if (field == "persistP999") is >> r.persistP999;
        else if (field == "persistMax") is >> r.persistMax;
        else if (field == "serveRequests") is >> r.serveRequests;
        else if (field == "vConsistent") {
            int b = 0;
            is >> b;
            v.consistent = b != 0;
        }
        else if (field == "vCrashTick") is >> v.crashTick;
        else if (field == "vActualTick") is >> v.actualTick;
        else if (field == "vStoresLogged") is >> v.storesLogged;
        else if (field == "vLinesSurvived") is >> v.linesSurvived;
        else if (field == "vUndoReplayed") is >> v.undoReplayed;
        else if (field == "vAdrDrainWrites") is >> v.adrDrainWrites;
        else if (field == "vCommitted") {
            std::size_t n = 0;
            is >> n;
            if (!is || n > 4096)
                return reject("malformed committed-frontier length");
            v.committedUpTo.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                is >> v.committedUpTo[i];
        }
        else if (field == "vStatesChecked") is >> v.statesChecked;
        else if (field == "vStatesReachable") is >> v.statesReachable;
        else if (field == "vDistinctStates") is >> v.distinctStates;
        else if (field == "vPermuteAtoms") is >> v.permuteAtoms;
        else if (field == "vTruncated") {
            int b = 0;
            is >> b;
            v.truncated = b != 0;
        }
        else if (field == "vInconsistentStates")
            is >> v.inconsistentStates;
        else if (field == "vFirstBadState") is >> v.firstBadState;
        else if (field == "vMessage") {
            is >> std::ws;
            std::getline(is, v.message);
        }
        else if (field == "end") {
            complete = true;
            break;
        } else {
            // Written by newer code than this reader.
            return reject("unknown field '" + field + "'");
        }
        if (!is)
            return reject("malformed value for field '" + field + "'");
    }
    if (!complete)
        return reject("truncated entry (no end marker)");
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

bool
ResultCache::lookup(const std::string &key, CachedResult &out)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = mem.find(key);
        if (it != mem.end()) {
            out = it->second;
            ++counters.memHits;
            return true;
        }
    }
    if (!dir.empty()) {
        std::ifstream in(diskPath(key));
        if (in) {
            std::ostringstream text;
            text << in.rdbuf();
            CachedResult e;
            std::string why;
            if (deserializeEntry(text.str(), e, &why)) {
                std::lock_guard<std::mutex> lock(mu);
                mem.emplace(key, e);
                ++counters.diskHits;
                out = e;
                return true;
            }
            // A rejected entry counts as a miss, but say why — a
            // silently re-simulating sweep looks identical to a cold
            // one, and a salt mismatch means someone's cache dir is
            // shared across incompatible builds.
            warn("ignoring cache entry ", diskPath(key), ": ", why);
        }
    }
    std::lock_guard<std::mutex> lock(mu);
    ++counters.misses;
    return false;
}

void
ResultCache::insert(const std::string &key, const CachedResult &e)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        mem[key] = e;
    }
    if (dir.empty())
        return;
    // Unique temp name per thread, fsync, then atomic rename: after a
    // power cut the entry is either absent or complete and durable —
    // multi-host sweeps trust remote entries without re-checking.
    std::ostringstream tmp;
    tmp << diskPath(key) << ".tmp." << std::this_thread::get_id();
    {
        const std::string text = serializeEntry(e);
        std::FILE *out = std::fopen(tmp.str().c_str(), "w");
        if (!out)
            return; // cache is best-effort; simulation result stands
        const bool wrote =
            std::fwrite(text.data(), 1, text.size(), out) ==
                text.size() &&
            std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
        std::fclose(out);
        if (!wrote) {
            std::error_code ec;
            std::filesystem::remove(tmp.str(), ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp.str(), diskPath(key), ec);
    if (ec)
        std::filesystem::remove(tmp.str(), ec);
}

std::string
ResultCache::auxPath(const std::string &key) const
{
    return dir + "/" + key + ".aux";
}

bool
ResultCache::lookupAux(const std::string &key, std::string &out)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = auxMem.find(key);
        if (it != auxMem.end()) {
            out = it->second;
            ++counters.auxHits;
            return true;
        }
    }
    if (!dir.empty()) {
        std::ifstream in(auxPath(key));
        if (in) {
            std::ostringstream text;
            text << in.rdbuf();
            std::string body = text.str();
            // Salt-stamped header line; a mismatch means the text was
            // derived by an incompatible code version.
            const std::string stamp =
                std::string("codeSalt ") + kCodeSalt + "\n";
            if (body.compare(0, stamp.size(), stamp) == 0) {
                body.erase(0, stamp.size());
                std::lock_guard<std::mutex> lock(mu);
                auxMem.emplace(key, body);
                ++counters.auxHits;
                out = std::move(body);
                return true;
            }
            warn("ignoring aux cache entry ", auxPath(key),
                 ": code-salt mismatch");
        }
    }
    std::lock_guard<std::mutex> lock(mu);
    ++counters.auxMisses;
    return false;
}

void
ResultCache::insertAux(const std::string &key, const std::string &text)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auxMem[key] = text;
    }
    if (dir.empty())
        return;
    std::ostringstream tmp;
    tmp << auxPath(key) << ".tmp." << std::this_thread::get_id();
    {
        const std::string stamped =
            std::string("codeSalt ") + kCodeSalt + "\n" + text;
        std::FILE *out = std::fopen(tmp.str().c_str(), "w");
        if (!out)
            return; // best-effort, like the result tier
        const bool wrote =
            std::fwrite(stamped.data(), 1, stamped.size(), out) ==
                stamped.size() &&
            std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
        std::fclose(out);
        if (!wrote) {
            std::error_code ec;
            std::filesystem::remove(tmp.str(), ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp.str(), auxPath(key), ec);
    if (ec)
        std::filesystem::remove(tmp.str(), ec);
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
