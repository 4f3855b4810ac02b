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
 *   --daemon SOCK  execute the sweep on the asapd at SOCK instead of
 *                  in-process (bench/asapd); tables and artifacts are
 *                  byte-identical either way
 *
 * Benches build an ExperimentJob list (JobSet or SweepSpec), run it
 * through the exp engine, and format tables from the deterministic,
 * submission-ordered results — so a bench's stdout is byte-identical
 * whatever --jobs is.
 */

#ifndef ASAP_BENCH_BENCH_UTIL_HH
#define ASAP_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dist/executor.hh"
#include "dist/shard.hh"
#include "media/media.hh"
#include "exp/emit.hh"
#include "exp/engine.hh"
#include "exp/sweep.hh"
#include "harness/runner.hh"
#include "sim/log.hh"
#include "svc/client.hh"
#include "workloads/registry.hh"

namespace asap
{

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

    std::string daemonSocket; //!< --daemon: route sweeps to an asapd

    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs a;
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--ops") && i + 1 < argc) {
                a.ops = static_cast<unsigned>(
                    std::strtoul(argv[++i], nullptr, 0));
            } else if (!std::strcmp(argv[i], "--seed") &&
                       i + 1 < argc) {
                a.seed = std::strtoull(argv[++i], nullptr, 0);
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
                a.jobs = static_cast<unsigned>(
                    std::strtoul(argv[++i], nullptr, 0));
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
                a.leaseTtl = std::strtod(argv[++i], nullptr);
            } else if (!std::strcmp(argv[i], "--daemon") &&
                       i + 1 < argc) {
                a.daemonSocket = argv[++i];
            } else {
                std::fprintf(stderr,
                             "usage: %s [--ops N] [--seed S] "
                             "[--workload W] [--media P] [--jobs N] "
                             "[--json PATH] [--progress] [--profile] "
                             "[--list-media] [--list-workloads] "
                             "[--daemon SOCKET] "
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

/**
 * Run a bench's job list where the user pointed it: on the asapd at
 * --daemon's socket, or in-process through the engine. Both paths
 * share jobKey()-addressed caching and deterministic assembly, so the
 * bench's tables and CSV artifacts are byte-identical either way.
 */
inline SweepResult
runBenchJobs(const BenchArgs &args, std::vector<ExperimentJob> jobs)
{
    if (!args.daemonSocket.empty()) {
        return daemonRunJobs(args.daemonSocket, std::move(jobs),
                             args.options());
    }
    return runJobs(std::move(jobs), args.options());
}

/** runBenchJobs() for declarative sweeps. */
inline SweepResult
runBenchSweep(const BenchArgs &args, const SweepSpec &spec)
{
    return runBenchJobs(args, spec.expand());
}

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
 * Shared bench epilogue: write the artifact if --json was given and
 * report the engine's dedup/cache accounting. The counters are
 * deterministic (unlike wall-clock, which only goes to stderr), so
 * stdout stays byte-identical across --jobs settings.
 */
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
                 "[profile] trace-gen %.3fs  trace-load %.3fs  "
                 "simulate %.3fs  check %.3fs  (%llu sim runs)\n",
                 sec(hp.traceGenNs), sec(hp.traceLoadNs),
                 sec(hp.simulateNs), sec(hp.checkNs),
                 static_cast<unsigned long long>(hp.simRuns));
}

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
    // Disk-trace replays vary with ASAP_TRACE_DIR warmth, so they are
    // stderr-only (the JSON header carries them deterministically per
    // invocation).
    std::fprintf(stderr, "sweep wall-clock: %.2fs (%llu disk-trace "
                 "replays)\n", sr.wallSeconds,
                 static_cast<unsigned long long>(sr.traceDiskHits));
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

} // namespace asap

#endif // ASAP_BENCH_BENCH_UTIL_HH
