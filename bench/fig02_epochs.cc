/**
 * @file
 * Figure 2: number of epochs and cross-thread dependencies within
 * 1 ms of execution (4 threads, release persistency).
 *
 * Expected shape (paper): the concurrent persistent indexes (CCEH,
 * Dash, RECIPE structures) show far more cross-thread dependencies
 * per millisecond than the WHISPER applications (Vacation, Memcached)
 * — the motivation for ASAP's eager cross-dependency handling.
 */

#include "bench/bench_util.hh"

using namespace asap;

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const BenchArgs args = BenchArgs::parse(argc, argv);
    const double msTicks = 2.0e6; // 1 ms at 2 GHz

    SweepSpec spec;
    spec.workloads = args.workloads();
    spec.models = {{ModelKind::Asap, PersistencyModel::Release}};
    spec.coreCounts = {4};
    spec.params = args.params();
    spec.base = args.baseConfig();
    if (maybeRunShard(args, spec.expand()))
        return 0;
    const SweepResult sr = runSweep(spec, args.options());

    std::printf("=== Figure 2: epochs and cross-thread dependencies "
                "per 1 ms (4 threads, RP) ===\n");
    std::printf("%-12s %12s %12s %14s\n", "workload", "epochs/ms",
                "crossdep/ms", "ticks");
    for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
        const RunResult &r = sr.at(i);
        const double scale = msTicks / static_cast<double>(r.runTicks);
        std::printf("%-12s %12.0f %12.0f %14llu\n",
                    sr.jobs[i].workload.c_str(), r.epochs * scale,
                    r.crossDeps * scale,
                    static_cast<unsigned long long>(r.runTicks));
    }
    finishSweep(args, sr);
    return 0;
}
