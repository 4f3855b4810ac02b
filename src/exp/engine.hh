/**
 * @file
 * Sweep engine: runs a job list across a thread pool with cached,
 * deduplicated simulations and deterministic result assembly.
 *
 * Guarantees:
 *  - results[i] always corresponds to jobs[i], whatever the worker
 *    count — output is byte-identical for --jobs 1 and --jobs N;
 *  - each distinct configuration simulates at most once per process
 *    (duplicates within a sweep and across sweeps hit the cache);
 *  - each crash point simulates once per sweep: the Crash and Permute
 *    jobs at one (workload, config, params, tick) share one crashed
 *    run (see src/exp/README.md, "Prefix groups");
 *  - workers never interleave partial log lines (sim/log.cc routes
 *    every message through one locked write path).
 */

#ifndef ASAP_EXP_ENGINE_HH
#define ASAP_EXP_ENGINE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "exp/cache.hh"
#include "exp/pool.hh"
#include "exp/sweep.hh"
#include "harness/runner.hh"

namespace asap
{

/** Execution knobs for one sweep. */
struct RunOptions
{
    /** Worker threads; 0 = ThreadPool::defaultThreads(). Ignored when
     *  an external executor is supplied. */
    unsigned jobs = 0;

    /** Cache to consult/fill; nullptr = the shared processCache(). */
    ResultCache *cache = nullptr;

    /**
     * Externally owned scheduler to run simulation tasks on; nullptr
     * makes the engine spin up (and tear down) its own ThreadPool.
     * A long-running service passes its shared scheduler here so
     * every sweep competes under one admission policy instead of
     * each one claiming the whole machine.
     */
    TaskExecutor *executor = nullptr;

    /**
     * Emit rate-limited progress/ETA lines (jobs done/total,
     * cache-hit rate, EMA-based ETA) to stderr while the sweep runs.
     * Off by default: progress goes through the locked log path and
     * bypasses the quiet flag, but never touches stdout, so bench
     * tables stay byte-identical with or without it.
     */
    bool progress = false;
};

/** A completed sweep: jobs, their results, and cache accounting. */
struct SweepResult
{
    std::vector<ExperimentJob> jobs;
    std::vector<RunResult> results; //!< results[i] belongs to jobs[i]

    /** verdicts[i] belongs to jobs[i]; default-constructed (and
     *  meaningless) for Run jobs — check jobs[i].kind. */
    std::vector<CrashVerdict> verdicts;

    std::size_t uniqueRuns = 0;   //!< simulations actually executed
    std::uint64_t cacheHits = 0;  //!< jobs served without simulating
    std::uint64_t diskHits = 0;   //!< subset of cacheHits from disk
    std::uint64_t traceHits = 0;  //!< simulations reusing a memoised trace
    std::uint64_t traceMisses = 0; //!< simulations that generated one
    std::uint64_t traceDiskHits = 0; //!< traces replayed from ASAP_TRACE_DIR
    double wallSeconds = 0.0;     //!< sweep wall-clock

    const RunResult &at(std::size_t i) const { return results[i]; }

    /** True if any job in the sweep is a crash-injection job. */
    bool hasCrashJobs() const;

    /** True if any job is a crash-state permutation job (gates the
     *  coverage columns in the emitters, so legacy crash-campaign
     *  artifacts keep their schema byte-for-byte). */
    bool hasPermuteJobs() const;

    /** True if any job runs on a non-default media profile (gates the
     *  media columns in the emitters, so single-media paper figures
     *  keep their pre-media artifact schema byte-for-byte). */
    bool hasNonDefaultMedia() const;

    /** True if any job is a streaming serve:* scenario (gates the
     *  persist-latency tail + request-throughput columns the same
     *  way hasNonDefaultMedia gates the media columns). */
    bool hasServeJobs() const;

    /** Indices of crash/permute jobs with an inconsistent verdict. */
    std::vector<std::size_t> inconsistentJobs() const;

    /**
     * First result matching the tuple (nullptr if absent). Handy for
     * cross-product sweeps where index arithmetic would be brittle.
     */
    const RunResult *find(const std::string &workload, ModelKind model,
                          PersistencyModel pm, unsigned cores) const;
};

/**
 * Simulate one job (no cache, no pool): run or crash-inject as the
 * kind demands and return the tagged payload. This is the unit of
 * work everything above schedules — runJobs() wraps it in dedup +
 * cache + assembly, and the svc daemon dispatches it from its own
 * priority queue.
 */
CachedResult executeJob(const ExperimentJob &job);

/** Run @p jobs (order preserved in the result). */
SweepResult runJobs(std::vector<ExperimentJob> jobs,
                    const RunOptions &opt = {});

/** Expand and run a declarative sweep. */
SweepResult runSweep(const SweepSpec &spec, const RunOptions &opt = {});

} // namespace asap

#endif // ASAP_EXP_ENGINE_HH
