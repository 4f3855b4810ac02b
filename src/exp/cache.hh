/**
 * @file
 * Result cache for experiment runs.
 *
 * Keys are a stable 64-bit FNV-1a hash over a canonical text
 * rendering of (workload, every SimConfig knob, every WorkloadParams
 * knob, code-version salt). Identical jobs therefore share one
 * simulation per process (in-memory tier) and — when a disk directory
 * is configured — across processes (on-disk tier), so re-running an
 * unchanged sweep is instant.
 *
 * Bump kCodeSalt in cache.cc whenever a change alters simulation
 * results; stale disk entries then miss instead of lying.
 */

#ifndef ASAP_EXP_CACHE_HH
#define ASAP_EXP_CACHE_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>

#include "exp/sweep.hh"
#include "harness/runner.hh"
#include "sim/hash.hh" // stableHash64 (historically declared here)

namespace asap
{

/** Canonical text rendering of a job (hash input; also debuggable). */
std::string describeJob(const ExperimentJob &job);

/** Stable cache key ("exp-" + 16 hex digits) for a job. */
std::string jobKey(const ExperimentJob &job);

/** The running code's version salt (baked into every key and written
 *  into every disk entry; see the invalidation contract in
 *  src/exp/README.md). */
const char *cacheCodeSalt();

/**
 * Remove `*.tmp.*` droppings older than @p older_than_seconds that
 * writers killed mid-insert left in @p dir. Runs automatically when a
 * disk-tier cache is opened; exposed for tests and tooling.
 * @return number of files removed
 */
std::size_t cleanStaleCacheTmp(const std::string &dir,
                               double older_than_seconds);

/**
 * Tagged cache payload: what a job produced. Run jobs fill only the
 * stat bundle; Crash jobs additionally carry the checker verdict of
 * the injected failure.
 */
struct CachedResult
{
    JobKind kind = JobKind::Run;
    RunResult run;        //!< stats (at completion, or at the crash)
    CrashVerdict verdict; //!< meaningful when kind == Crash
};

/**
 * Where a RunResult field appears. Every field is in every cache
 * entry; the group decides which JSON/CSV artifacts carry it.
 */
enum class FieldGroup
{
    Core,      //!< every artifact row
    Media,     //!< rows of sweeps that touch a non-default media profile
    Serve,     //!< rows of sweeps with serve:* jobs
    CacheOnly, //!< no stat column: identity (the emitters print the
               //!< job's) and eventsExecuted
};

/** One serialized RunResult field. */
struct ResultField
{
    using Member =
        std::variant<std::string RunResult::*, ModelKind RunResult::*,
                     PersistencyModel RunResult::*, unsigned RunResult::*,
                     std::uint64_t RunResult::*, double RunResult::*>;

    const char *name; //!< cache-entry key and artifact column name
    FieldGroup group;
    Member member;
};

/**
 * The result schema: every serialized RunResult field, in
 * cache-entry order. The cache writer and reader and the JSON and CSV
 * emitters all iterate this one table, so a new stat is one row here
 * (plus a kCodeSalt bump in cache.cc). hostNs is deliberately absent:
 * host wall time is non-deterministic and must never round-trip
 * through a cache or reach an artifact.
 */
std::span<const ResultField> resultFields();

/** Write field @p f of @p r as one whitespace-free token (an empty
 *  string as "-"). */
void writeField(std::ostream &os, const ResultField &f, const RunResult &r);

/** Serialize a RunResult as "field value" lines. */
std::string serializeResult(const RunResult &r);

/**
 * Parse serializeResult() output.
 * @return false if the text is truncated or malformed
 */
bool deserializeResult(const std::string &text, RunResult &out);

/** Serialize a tagged entry (Run entries match serializeResult()). */
std::string serializeEntry(const CachedResult &e);

/**
 * Parse serializeEntry() output; also accepts plain
 * serializeResult() text (an entry of kind Run) and pre-hardening
 * entries without a codeSalt line. Every field the entry's kind
 * writes must be present exactly once: a missing line is a damaged
 * entry, not a zero.
 * @param why when non-null, set to a human-readable rejection reason
 *            (truncated / malformed / incomplete / code-salt mismatch)
 *            on failure
 * @return false if the text is truncated, malformed, incomplete, or
 *         written by a different code version
 */
bool deserializeEntry(const std::string &text, CachedResult &out,
                      std::string *why = nullptr);

/** Hit/miss counters, snapshot via ResultCache::stats(). */
struct CacheStats
{
    std::uint64_t memHits = 0;  //!< served from the in-process map
    std::uint64_t diskHits = 0; //!< loaded from the disk tier
    std::uint64_t misses = 0;   //!< had to simulate

    std::uint64_t auxHits = 0;   //!< aux-tier entries served
    std::uint64_t auxMisses = 0; //!< aux-tier lookups that failed

    std::uint64_t hits() const { return memHits + diskHits; }
};

/**
 * Two-tier (memory, optional disk) result cache. Thread-safe; the
 * disk tier uses write-to-temp + rename so concurrent processes never
 * observe partial entries.
 */
class ResultCache
{
  public:
    /** @param disk_dir on-disk tier directory; empty disables it */
    explicit ResultCache(std::string disk_dir = "");

    /**
     * Look @p key up (memory first, then disk; disk hits are
     * promoted to memory). Counts a hit or miss.
     * @return true and fills @p out on a hit
     */
    bool lookup(const std::string &key, CachedResult &out);

    /** Store a freshly produced entry in both tiers. */
    void insert(const std::string &key, const CachedResult &e);

    /** Stat-bundle shorthands for Run-kind entries. */
    bool lookup(const std::string &key, RunResult &out);
    void insert(const std::string &key, const RunResult &r);

    /**
     * Auxiliary raw-text tier: memoized derivations of results (e.g.
     * a crash campaign's probe summary) that are not themselves
     * simulations. Same two-tier behaviour — in-memory map plus, when
     * the disk tier is on, a `<key>.aux` file written temp+rename —
     * and every entry is stamped with the code salt, so a derivation
     * rule change invalidates stored text the same way a simulation
     * change invalidates results.
     * @return true and fills @p out on a hit
     */
    bool lookupAux(const std::string &key, std::string &out);

    /** Store raw text under @p key in the aux tier. */
    void insertAux(const std::string &key, const std::string &text);

    /** Counter snapshot. */
    CacheStats stats() const;

    /** Drop the in-memory tier and reset counters (tests). */
    void clear();

    const std::string &diskDir() const { return dir; }

  private:
    std::string diskPath(const std::string &key) const;
    std::string auxPath(const std::string &key) const;

    /** Which CacheStats counters one tier's lookups bump. */
    struct TierCounters
    {
        std::uint64_t CacheStats::*memHit;
        std::uint64_t CacheStats::*diskHit;
        std::uint64_t CacheStats::*miss;
    };

    /** The lookup both tiers share: @p map, then the disk file at
     *  @p path through @p decode (disk hits are promoted). */
    template <class T, class Decode>
    bool lookupIn(std::unordered_map<std::string, T> &map,
                  const std::string &key, const std::string &path,
                  Decode decode, TierCounters count, T &out);

    mutable std::mutex mu;
    std::unordered_map<std::string, CachedResult> mem;
    std::unordered_map<std::string, std::string> auxMem;
    std::string dir;
    CacheStats counters;
};

/**
 * The per-process cache every sweep shares by default. Its disk tier
 * is enabled by the ASAP_CACHE_DIR environment variable (read once).
 */
ResultCache &processCache();

} // namespace asap

#endif // ASAP_EXP_CACHE_HH
