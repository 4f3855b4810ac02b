/**
 * @file
 * Exhaustive crash-state permuter driver. Where bench/crash_campaign
 * checks the single canonical post-crash NVM state per power-failure
 * point, this bench enumerates *every* reachable post-crash state at
 * each point (src/permute/): each subset of the in-flight commit
 * application and recovery-record effects that the crash could have
 * frozen, checked independently against the recovery checker's
 * consistency predicate.
 *
 * Campaign mode (default): one verdict-table row per configuration
 * with coverage columns (states checked / states reachable), a
 * summary line, and a non-zero exit if any enumerated state at any
 * crash point was inconsistent — each failure prints one `--repro`
 * command, pinned with `--state <hexmask>`, that replays exactly that
 * state.
 *
 * Repro mode (`--repro`): re-run one crash point (optionally one
 * state via --state) and print the full verdict with coverage.
 *
 * Enumeration is exhaustive below --bound reachable states and
 * seeded-sampled above it (corners always included); truncation is
 * reported loudly in the table and the artifact, never silently.
 */

#include "bench/bench_util.hh"

#include "exp/crash_campaign.hh"
#include "permute/permute.hh"

using namespace asap;

namespace
{

struct PermuteArgs
{
    unsigned ops = 200;
    std::uint64_t seed = 1;
    std::string workload; //!< empty = all Table III workloads
    std::string media = kDefaultMediaProfile; //!< media profile
    unsigned jobs = 0;
    std::string jsonPath;

    unsigned ticks = 12;  //!< crash points per configuration
    std::string strategy = "stride";
    std::uint64_t tickSeed = 1;
    unsigned cores = 4;
    std::string models = "asap_ep,asap_rp"; //!< comma-separated

    std::uint64_t bound = 4096;   //!< max states checked per point
    std::uint64_t sampleSeed = 1; //!< sampling seed above the bound
    std::string fault;            //!< test-only recovery fault hook
    std::string state;            //!< hex mask: check one state only
    std::string engine;           //!< check loop ("", inc., naive)
    unsigned permuteThreads = 1;  //!< state-check worker threads

    bool repro = false;   //!< single-crash-point replay mode
    std::string model = "asap";
    std::string pm = "rp";
    std::uint64_t crashTick = 0;

    bool progress = false; //!< stderr progress/ETA lines
    bool sharded = false;  //!< --shard: distributed permute mode
    ShardSpec shard;
    bool claim = false;
    double leaseTtl = 60.0;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--ops N] [--seed S] [--workload W] [--media P] "
        "[--jobs N]\n"
        "          [--json PATH] [--ticks N] [--strategy NAME] "
        "[--list-strategies]\n"
        "          [--tick-seed S] [--cores N] [--models "
        "m1_pm1,m2_pm2,...]\n"
        "          [--bound N] [--sample-seed S] [--inject-fault F]\n"
        "          [--engine E] [--permute-jobs N]\n"
        "          [--progress]\n"
        "          [--shard i/n [--claim] [--salt S] "
        "[--lease-ttl SEC]]\n"
        "       %s --repro --workload W [--media P] --model M --pm P "
        "--cores N\n"
        "          --ops N --seed S --crash-tick T [--bound N] "
        "[--sample-seed S]\n"
        "          [--inject-fault F] [--state HEXMASK] [--engine E] "
        "[--permute-jobs N]\n",
        argv0, argv0);
    std::exit(2);
}

PermuteArgs
parseArgs(int argc, char **argv)
{
    PermuteArgs a;
    auto need = [&](int i) {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--ops"))
            a.ops = parseFlagUnsigned("--ops", need(i)), ++i;
        else if (!std::strcmp(arg, "--seed"))
            a.seed = parseFlagU64("--seed", need(i)), ++i;
        else if (!std::strcmp(arg, "--workload"))
            a.workload = need(i), ++i;
        else if (!std::strcmp(arg, "--media")) {
            a.media = need(i), ++i;
            if (!isMediaProfile(a.media)) {
                std::fprintf(stderr, "error: unknown media profile "
                             "'%s' (try --list-media)\n",
                             a.media.c_str());
                std::exit(2);
            }
        }
        else if (!std::strcmp(arg, "--list-media")) {
            for (const MediaProfileInfo &m : allMediaProfiles())
                std::printf("%-14s %s\n", m.name.c_str(),
                            m.description.c_str());
            std::exit(0);
        }
        else if (!std::strcmp(arg, "--jobs"))
            a.jobs = parseFlagUnsigned("--jobs", need(i)), ++i;
        else if (!std::strcmp(arg, "--json"))
            a.jsonPath = need(i), ++i;
        else if (!std::strcmp(arg, "--ticks"))
            a.ticks = parseFlagUnsigned("--ticks", need(i)), ++i;
        else if (!std::strcmp(arg, "--strategy"))
            a.strategy = need(i), ++i;
        else if (!std::strcmp(arg, "--list-strategies")) {
            for (const TickStrategyInfo &t : allTickStrategies())
                std::printf("%-8s %s\n", t.name, t.description);
            std::exit(0);
        }
        else if (!std::strcmp(arg, "--tick-seed"))
            a.tickSeed = parseFlagU64("--tick-seed", need(i)), ++i;
        else if (!std::strcmp(arg, "--cores"))
            a.cores = parseFlagUnsigned("--cores", need(i)), ++i;
        else if (!std::strcmp(arg, "--models"))
            a.models = need(i), ++i;
        else if (!std::strcmp(arg, "--bound")) {
            a.bound = parseFlagU64("--bound", need(i)), ++i;
            if (a.bound == 0) {
                std::fprintf(stderr,
                             "error: --bound must be >= 1\n");
                std::exit(2);
            }
        }
        else if (!std::strcmp(arg, "--sample-seed"))
            a.sampleSeed = parseFlagU64("--sample-seed", need(i)), ++i;
        else if (!std::strcmp(arg, "--inject-fault")) {
            a.fault = need(i), ++i;
            permute::FaultMode fm;
            if (!permute::parsePermuteFault(a.fault, fm)) {
                std::fprintf(stderr,
                             "error: unknown fault mode '%s'; valid "
                             "modes: %s\n", a.fault.c_str(),
                             permute::permuteFaultNames());
                std::exit(2);
            }
        }
        else if (!std::strcmp(arg, "--engine")) {
            a.engine = need(i), ++i;
            permute::Engine eng;
            if (!permute::parsePermuteEngine(a.engine, eng)) {
                std::fprintf(stderr,
                             "error: unknown permute engine '%s'; "
                             "valid engines: %s\n", a.engine.c_str(),
                             permute::permuteEngineNames());
                std::exit(2);
            }
        }
        else if (!std::strcmp(arg, "--permute-jobs"))
            a.permuteThreads =
                parseFlagUnsigned("--permute-jobs", need(i)), ++i;
        else if (!std::strcmp(arg, "--state")) {
            a.state = need(i), ++i;
            std::uint64_t mask;
            if (!permute::maskFromHex(a.state, mask)) {
                std::fprintf(stderr,
                             "error: --state wants a hex atom mask "
                             "(e.g. 1f), got '%s'\n", a.state.c_str());
                std::exit(2);
            }
        }
        else if (!std::strcmp(arg, "--repro"))
            a.repro = true;
        else if (!std::strcmp(arg, "--model"))
            a.model = need(i), ++i;
        else if (!std::strcmp(arg, "--pm"))
            a.pm = need(i), ++i;
        else if (!std::strcmp(arg, "--crash-tick"))
            a.crashTick = parseFlagU64("--crash-tick", need(i)), ++i;
        else if (!std::strcmp(arg, "--progress"))
            a.progress = true;
        else if (!std::strcmp(arg, "--shard")) {
            const std::string salt = a.shard.salt; // keep --salt
            a.shard = parseShardSpec(need(i)), ++i;
            a.shard.salt = salt;
            a.sharded = true;
        } else if (!std::strcmp(arg, "--claim"))
            a.claim = true;
        else if (!std::strcmp(arg, "--salt"))
            a.shard.salt = need(i), ++i;
        else if (!std::strcmp(arg, "--lease-ttl"))
            a.leaseTtl = parseFlagDouble("--lease-ttl", need(i)), ++i;
        else
            usage(argv[0]);
    }
    return a;
}

/** Parse "asap_rp,hops_ep,..." into (model, persistency) pairs. */
std::vector<ModelPair>
parseModels(const std::string &list)
{
    std::vector<ModelPair> models;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t end = list.find(',', start);
        if (end == std::string::npos)
            end = list.size();
        const std::string item = list.substr(start, end - start);
        const std::size_t us = item.rfind('_');
        if (item.empty() || us == std::string::npos) {
            std::fprintf(stderr,
                         "error: bad --models entry '%s' (want e.g. "
                         "asap_rp)\n", item.c_str());
            std::exit(2);
        }
        models.emplace_back(parseModelKind(item.substr(0, us)),
                            parsePersistencyModel(item.substr(us + 1)));
        start = end + 1;
    }
    return models;
}

WorkloadParams
paramsFor(const PermuteArgs &a)
{
    WorkloadParams p;
    p.opsPerThread = a.ops;
    p.seed = a.seed;
    return p;
}

void
printVerdict(const CrashVerdict &v)
{
    std::printf("verdict: %s\n",
                v.consistent ? "CONSISTENT" : "INCONSISTENT");
    std::printf("  crash tick  %llu (stopped at %llu)\n",
                (unsigned long long)v.crashTick,
                (unsigned long long)v.actualTick);
    std::printf("  frontier   ");
    for (std::uint64_t c : v.committedUpTo)
        std::printf(" e%llu", (unsigned long long)c);
    std::printf("\n");
    std::printf("  states checked %llu of %llu reachable (%llu "
                "distinct images, %llu atoms)%s\n",
                (unsigned long long)v.statesChecked,
                (unsigned long long)v.statesReachable,
                (unsigned long long)v.distinctStates,
                (unsigned long long)v.permuteAtoms,
                v.truncated ? " [TRUNCATED]" : "");
    std::printf("  stores logged %llu, lines survived %llu, undo "
                "replayed %llu, ADR drained %llu\n",
                (unsigned long long)v.storesLogged,
                (unsigned long long)v.linesSurvived,
                (unsigned long long)v.undoReplayed,
                (unsigned long long)v.adrDrainWrites);
    if (v.permuteNs != 0)
        std::printf("  check time %.1f ms (%.0f states/s)\n",
                    double(v.permuteNs) / 1e6,
                    double(v.statesChecked) * 1e9 /
                        double(v.permuteNs));
    if (v.inconsistentStates != 0)
        std::printf("  inconsistent states %llu (first bad mask %s)\n",
                    (unsigned long long)v.inconsistentStates,
                    v.firstBadState.c_str());
    if (!v.message.empty())
        std::printf("  violation: %s\n", v.message.c_str());
}

int
runRepro(const PermuteArgs &a)
{
    SimConfig cfg;
    cfg.mediaProfile = a.media;
    cfg.model = parseModelKind(a.model);
    cfg.persistency = parsePersistencyModel(a.pm);
    cfg.numCores = a.cores;
    cfg.seed = a.seed;

    JobSet set;
    set.addPermute(a.workload, cfg, paramsFor(a), a.crashTick,
                   a.bound, a.sampleSeed, a.fault, a.state, a.engine,
                   a.permuteThreads);
    RunOptions opt;
    opt.jobs = a.jobs;
    const SweepResult sr = runJobs(set.jobs(), opt);

    std::printf("=== repro: %s%s%s %s/%s %u cores, crash @ %llu",
                a.workload.c_str(),
                a.media == kDefaultMediaProfile ? "" : " on ",
                a.media == kDefaultMediaProfile ? "" : a.media.c_str(),
                a.model.c_str(), a.pm.c_str(), a.cores,
                (unsigned long long)a.crashTick);
    if (!a.state.empty())
        std::printf(", state %s", a.state.c_str());
    std::printf(" ===\n");
    printVerdict(sr.verdicts[0]);
    return sr.verdicts[0].consistent ? 0 : 1;
}

int
runPermuteCampaign(const PermuteArgs &a, const BenchArgs &emitArgs)
{
    CampaignSpec spec;
    if (a.workload.empty()) {
        for (const WorkloadInfo &w : allWorkloads())
            spec.workloads.push_back(w.name);
    } else {
        spec.workloads.push_back(a.workload);
    }
    spec.models = parseModels(a.models);
    spec.coreCounts = {a.cores};
    spec.params = paramsFor(a);
    spec.base.mediaProfile = a.media;
    spec.strategy = parseTickStrategy(a.strategy);
    spec.ticksPerConfig = a.ticks;
    spec.tickSeed = a.tickSeed;
    spec.sweepKind = JobKind::Permute;
    spec.permuteBound = a.bound;
    spec.permuteSeed = a.sampleSeed;
    spec.permuteFault = a.fault;
    spec.permuteEngine = a.engine;
    spec.permuteThreads = a.permuteThreads;

    if (maybeRunCampaignShard(emitArgs, spec))
        return 0;

    const CampaignResult cr = runCampaign(spec, emitArgs.options());
    if (cr.probePhaseCached) {
        // stderr only: apart from the host-side states/s column, the
        // verdict table stays byte-identical between cold and warm
        // campaigns.
        std::fprintf(stderr,
                     "probe phase: served from memoized summary\n");
    }

    std::printf("=== Crash-state permutation campaign: %zu crash "
                "points, strategy %s, bound %llu%s%s ===\n",
                cr.crashPoints(), toString(spec.strategy).c_str(),
                (unsigned long long)a.bound,
                a.fault.empty() ? "" : ", fault ",
                a.fault.c_str());
    std::printf("%-12s %-10s %5s %7s %10s %10s %6s %5s %5s %9s\n",
                "workload", "model", "cores", "points", "checked",
                "reachable", "cov%", "trunc", "bad", "states/s");
    std::size_t next = 0;
    bool anyTruncated = false;
    for (const CampaignRow &row : cr.rows) {
        std::uint64_t checked = 0, reachable = 0, checkNs = 0;
        std::size_t truncated = 0, bad = 0;
        for (std::size_t i = 0; i < row.points; ++i, ++next) {
            const CrashVerdict &v = cr.sweep.verdicts[next];
            checked += v.statesChecked;
            reachable += v.statesReachable;
            checkNs += v.permuteNs;
            if (v.truncated)
                ++truncated;
            if (!v.consistent)
                ++bad;
        }
        anyTruncated = anyTruncated || truncated != 0;
        const double cov =
            reachable ? 100.0 * double(checked) / double(reachable)
                      : 100.0;
        // Host-side rate; "-" when every verdict in the row was
        // cache-served (permuteNs is never cached). The one
        // non-deterministic table column, mirroring wallSeconds in
        // the JSON header.
        char rate[24];
        if (checkNs)
            std::snprintf(rate, sizeof(rate), "%.0f",
                          double(checked) * 1e9 / double(checkNs));
        else
            std::snprintf(rate, sizeof(rate), "-");
        std::printf("%-12s %-10s %5u %7zu %10llu %10llu %6.1f %5zu "
                    "%5zu %9s\n",
                    row.workload.c_str(),
                    (toString(row.model) + "_" + toString(row.pm))
                        .c_str(),
                    row.cores, row.points,
                    (unsigned long long)checked,
                    (unsigned long long)reachable, cov, truncated,
                    bad, rate);
    }
    std::printf("permute campaign: %zu crash points, %zu consistent, "
                "%zu inconsistent%s\n",
                cr.crashPoints(), cr.crashPoints() - cr.badJobs.size(),
                cr.badJobs.size(),
                anyTruncated ? " (coverage TRUNCATED at some points; "
                               "raise --bound for exhaustive sweeps)"
                             : "");
    for (std::size_t i : cr.badJobs) {
        const CrashVerdict &v = cr.sweep.verdicts[i];
        std::printf("INCONSISTENT: %s\n", v.message.c_str());
        std::printf("  repro: %s\n",
                    reproCommand(cr.sweep.jobs[i],
                                 v.firstBadState).c_str());
    }
    finishSweep(emitArgs, cr.sweep);
    return cr.allConsistent() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const PermuteArgs a = parseArgs(argc, argv);
    // --progress also turns on the state-level meter inside the
    // permuter (states checked, states/s, ETA on stderr).
    permute::setPermuteProgress(a.progress);
    if (a.repro) {
        if (a.workload.empty()) {
            std::fprintf(stderr,
                         "error: --repro needs --workload\n");
            return 2;
        }
        return runRepro(a);
    }
    if (!a.state.empty()) {
        std::fprintf(stderr,
                     "error: --state only makes sense with --repro\n");
        return 2;
    }
    // Reuse the shared bench epilogue (artifact + accounting line).
    BenchArgs emitArgs;
    emitArgs.ops = a.ops;
    emitArgs.seed = a.seed;
    emitArgs.workload = a.workload;
    emitArgs.jobs = a.jobs;
    emitArgs.jsonPath = a.jsonPath;
    emitArgs.progress = a.progress;
    emitArgs.sharded = a.sharded;
    emitArgs.shard = a.shard;
    emitArgs.claim = a.claim;
    emitArgs.leaseTtl = a.leaseTtl;
    return runPermuteCampaign(a, emitArgs);
}
