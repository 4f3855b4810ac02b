/**
 * @file
 * Shared helpers for the figure-reproduction benches.
 *
 * Every bench accepts:
 *   --ops N        high-level operations per thread (default 200)
 *   --seed S       RNG seed
 *   --workload W   restrict to one workload (default: all)
 *   --media P      NVM media profile (default: paper-table2)
 *   --jobs N       parallel simulations (default: hardware threads)
 *   --json PATH    write the sweep's raw results as JSON (.csv: CSV)
 *   --progress     rate-limited progress/ETA lines on stderr
 *   --profile      host-time phase breakdown on stderr after the run
 *   --list-media   print the media-profile registry and exit
 *   --list-workloads  print the workload registry and exit
 *   --shard i/n    run only shard i of n (requires ASAP_CACHE_DIR);
 *                  results go to the shared cache + a manifest, and
 *                  bench/sweep_merge reassembles the sweep afterwards
 *   --claim        with --shard: also reclaim dead shards' jobs
 *   --salt S       re-deal the shard partition (must match cluster-wide)
 *   --lease-ttl S  claim-protocol lease staleness threshold (seconds)
 *
 * Numeric flag values go through parseFlagU64() and friends: a value
 * that is not one whole number ("12x", "abc", "") exits 2 naming the
 * flag instead of being read as its numeric prefix or as 0.
 *
 * Benches build an ExperimentJob list (JobSet or SweepSpec), run it
 * through the exp engine, and format tables from the deterministic,
 * submission-ordered results — so a bench's stdout is byte-identical
 * whatever --jobs is.
 */

#ifndef ASAP_BENCH_BENCH_UTIL_HH
#define ASAP_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dist/executor.hh"
#include "dist/shard.hh"
#include "media/media.hh"
#include "exp/crash_campaign.hh"
#include "exp/emit.hh"
#include "exp/engine.hh"
#include "exp/sweep.hh"
#include "harness/runner.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"

namespace asap
{

/** Exit 2 because @p text is not a valid value for @p flag. */
[[noreturn]] inline void
badFlagValue(const char *flag, const char *text, const char *want)
{
    std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag, want,
                 text);
    std::exit(2);
}

/**
 * The value of numeric flag @p flag: a whole non-negative integer
 * (decimal, or 0x-hex / 0-octal as strtoull reads them). Anything else
 * — a sign, trailing junk, an empty string, overflow — exits 2.
 */
inline std::uint64_t
parseFlagU64(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE)
        badFlagValue(flag, text, "a non-negative integer");
    return v;
}

/** parseFlagU64() narrowed to unsigned (larger values exit 2). */
inline unsigned
parseFlagUnsigned(const char *flag, const char *text)
{
    const std::uint64_t v = parseFlagU64(flag, text);
    if (v > UINT_MAX)
        badFlagValue(flag, text, "an integer that fits in 32 bits");
    return static_cast<unsigned>(v);
}

/** The value of a non-negative real flag (seconds, say). */
inline double
parseFlagDouble(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || v < 0)
        badFlagValue(flag, text, "a non-negative number");
    return v;
}

/** Parsed bench command line. */
struct BenchArgs
{
    unsigned ops = 200;
    std::uint64_t seed = 1;
    std::string workload; //!< empty = all
    std::string media = kDefaultMediaProfile; //!< media profile
    unsigned jobs = 0;    //!< sweep workers; 0 = hardware default
    std::string jsonPath; //!< empty = no artifact
    bool progress = false; //!< stderr progress/ETA lines
    bool profile = false;  //!< stderr host-time phase breakdown

    bool sharded = false; //!< --shard given: distributed mode
    ShardSpec shard;      //!< which slice (with --salt folded in)
    bool claim = false;   //!< reclaim dead shards' jobs
    double leaseTtl = 60.0; //!< lease staleness threshold

    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs a;
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--ops") && i + 1 < argc) {
                a.ops = parseFlagUnsigned("--ops", argv[++i]);
            } else if (!std::strcmp(argv[i], "--seed") &&
                       i + 1 < argc) {
                a.seed = parseFlagU64("--seed", argv[++i]);
            } else if (!std::strcmp(argv[i], "--workload") &&
                       i + 1 < argc) {
                a.workload = argv[++i];
            } else if (!std::strcmp(argv[i], "--media") &&
                       i + 1 < argc) {
                a.media = argv[++i];
                if (!isMediaProfile(a.media)) {
                    std::fprintf(stderr, "error: unknown media "
                                 "profile '%s' (try --list-media)\n",
                                 a.media.c_str());
                    std::exit(2);
                }
            } else if (!std::strcmp(argv[i], "--list-media")) {
                for (const MediaProfileInfo &m : allMediaProfiles())
                    std::printf("%-14s %s\n", m.name.c_str(),
                                m.description.c_str());
                std::exit(0);
            } else if (!std::strcmp(argv[i], "--list-workloads")) {
                for (const WorkloadInfo &w : allWorkloads())
                    std::printf("%-10s %s\n", w.name.c_str(),
                                w.description.c_str());
                std::exit(0);
            } else if (!std::strcmp(argv[i], "--jobs") &&
                       i + 1 < argc) {
                a.jobs = parseFlagUnsigned("--jobs", argv[++i]);
            } else if (!std::strcmp(argv[i], "--json") &&
                       i + 1 < argc) {
                a.jsonPath = argv[++i];
            } else if (!std::strcmp(argv[i], "--progress")) {
                a.progress = true;
            } else if (!std::strcmp(argv[i], "--profile")) {
                a.profile = true;
            } else if (!std::strcmp(argv[i], "--shard") &&
                       i + 1 < argc) {
                const std::string salt = a.shard.salt; // keep --salt
                a.shard = parseShardSpec(argv[++i]);
                a.shard.salt = salt;
                a.sharded = true;
            } else if (!std::strcmp(argv[i], "--claim")) {
                a.claim = true;
            } else if (!std::strcmp(argv[i], "--salt") &&
                       i + 1 < argc) {
                a.shard.salt = argv[++i];
            } else if (!std::strcmp(argv[i], "--lease-ttl") &&
                       i + 1 < argc) {
                a.leaseTtl = parseFlagDouble("--lease-ttl", argv[++i]);
            } else {
                std::fprintf(stderr,
                             "usage: %s [--ops N] [--seed S] "
                             "[--workload W] [--media P] [--jobs N] "
                             "[--json PATH] [--progress] [--profile] "
                             "[--list-media] [--list-workloads] "
                             "[--shard i/n [--claim] [--salt S] "
                             "[--lease-ttl SEC]]\n", argv[0]);
                std::exit(2);
            }
        }
        return a;
    }

    /** Workload names this bench should sweep. */
    std::vector<std::string>
    workloads() const
    {
        std::vector<std::string> names;
        if (!workload.empty()) {
            names.push_back(workload);
            return names;
        }
        for (const WorkloadInfo &w : allWorkloads())
            names.push_back(w.name);
        return names;
    }

    WorkloadParams
    params() const
    {
        WorkloadParams p;
        p.opsPerThread = ops;
        p.seed = seed;
        return p;
    }

    /** Base SimConfig with the selected media profile applied. Every
     *  bench starts from this so --media reaches each job. */
    SimConfig
    baseConfig() const
    {
        SimConfig cfg;
        cfg.mediaProfile = media;
        return cfg;
    }

    RunOptions
    options() const
    {
        RunOptions opt;
        opt.jobs = jobs;
        opt.progress = progress;
        return opt;
    }

    DistOptions
    distOptions() const
    {
        DistOptions opt;
        opt.shard = shard;
        opt.claim = claim;
        opt.jobs = jobs;
        opt.progress = progress;
        opt.leaseTtlSeconds = leaseTtl;
        // Keep heartbeats comfortably inside the TTL even when tests
        // shrink it to force reclaim.
        opt.heartbeatSeconds = std::min(10.0, leaseTtl / 4.0);
        return opt;
    }
};

/** Geometric mean of a series (ignores non-positive entries). */
inline double
gmean(const std::vector<double> &xs)
{
    double acc = 0.0;
    unsigned n = 0;
    for (double x : xs) {
        if (x > 0) {
            acc += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(acc / n) : 0.0;
}

/** Arithmetic mean of a series (0 if empty). */
inline double
amean(const std::vector<double> &xs)
{
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return xs.empty() ? 0.0 : acc / static_cast<double>(xs.size());
}

/**
 * Print the process-wide host-time phase breakdown on stderr.
 * Wall-clock is non-deterministic, so none of this may reach stdout.
 */
inline void
printHostProfile()
{
    const HostProfile hp = hostProfile();
    auto sec = [](std::uint64_t ns) { return 1e-9 * double(ns); };
    std::fprintf(stderr,
                 "[profile] trace-gen %.3fs  simulate %.3fs  "
                 "check %.3fs  (%llu sim runs)\n",
                 sec(hp.traceGenNs), sec(hp.simulateNs), sec(hp.checkNs),
                 static_cast<unsigned long long>(hp.simRuns));
}

/**
 * Shared bench epilogue: write the artifact if --json was given and
 * report the engine's dedup/cache accounting. The counters are
 * deterministic (unlike wall-clock, which only goes to stderr), so
 * stdout stays byte-identical across --jobs settings.
 */
inline void
finishSweep(const BenchArgs &args, const SweepResult &sr)
{
    // Report artifact failures directly: benches run with
    // setLogQuiet(true), which would swallow emitToFile's warn().
    if (!args.jsonPath.empty() && !emitToFile(args.jsonPath, sr))
        std::fprintf(stderr, "error: could not write sweep artifact "
                     "to %s\n", args.jsonPath.c_str());
    std::printf("[sweep: %zu jobs, %zu simulated, %llu cache hits]\n",
                sr.jobs.size(), sr.uniqueRuns,
                static_cast<unsigned long long>(sr.cacheHits));
    std::fprintf(stderr, "sweep wall-clock: %.2fs\n", sr.wallSeconds);
    if (args.profile)
        printHostProfile();
}

/**
 * Distributed-mode hook. When --shard i/n was given, run only this
 * shard's slice of @p jobs — results land in the shared cache and a
 * per-shard manifest, not in a table — print the shard summary, and
 * return true so the bench exits without formatting anything.
 * Reassemble with bench/sweep_merge once every shard has finished.
 */
inline bool
maybeRunShard(const BenchArgs &args,
              const std::vector<ExperimentJob> &jobs)
{
    if (!args.sharded)
        return false;
    const ShardManifest m = runJobsSharded(jobs, args.distOptions());
    std::printf("[shard %s of sweep %s: %zu jobs, %zu owned, "
                "%zu simulated, %zu claimed, %zu cached, %zu leased, "
                "%zu skipped]\n",
                toString(m.shard).c_str(), m.sweep.c_str(),
                m.jobs.size(), m.owned, m.simulated, m.claimed,
                m.cachedHits, m.leasedSkipped, m.otherSkipped);
    std::printf("[manifest: %s]\n", m.path.c_str());
    std::printf("[merge: build/bench/sweep_merge --cache-dir %s "
                "--sweep %s]\n",
                processCache().diskDir().c_str(), m.sweep.c_str());
    if (args.profile)
        printHostProfile();
    return true;
}

/**
 * maybeRunShard() for crash campaigns. Every shard needs every probe
 * result to derive the identical crash job list, so the probe phase
 * blocks until all probes are in the shared cache (simulated at most
 * once cluster-wide via the lease protocol); only the crash sweep
 * itself is then sharded. A memoized probe summary (any earlier
 * campaign over these configs, Crash or Permute) skips the phase.
 */
inline bool
maybeRunCampaignShard(const BenchArgs &args, const CampaignSpec &spec)
{
    if (!args.sharded)
        return false;
    std::vector<ProbeStat> stats;
    if (lookupProbeStats(spec, processCache(), stats)) {
        std::fprintf(stderr,
                     "probe phase: served from memoized summary\n");
    } else {
        stats = memoizeProbeStats(
            spec, processCache(),
            ensureJobs(campaignProbeJobs(spec), args.distOptions()));
    }
    return maybeRunShard(args, expandCampaign(spec, stats).crashJobs);
}

} // namespace asap

#endif // ASAP_BENCH_BENCH_UTIL_HH
