/**
 * @file
 * Figure 3: percentage of cycles the persist buffers are blocked
 * without flushing writes, under HOPS (conservative flushing).
 *
 * Expected shape (paper): ~26% of cycles on average; highest for the
 * new concurrent persistent data structures because of their frequent
 * cross-thread dependencies.
 */

#include "bench/bench_util.hh"

using namespace asap;

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const BenchArgs args = BenchArgs::parse(argc, argv);

    SweepSpec spec;
    spec.workloads = args.workloads();
    spec.models = {{ModelKind::Hops, PersistencyModel::Release}};
    spec.coreCounts = {4};
    spec.params = args.params();
    spec.base = args.baseConfig();
    if (maybeRunShard(args, spec.expand()))
        return 0;
    const SweepResult sr = runSweep(spec, args.options());

    std::printf("=== Figure 3: %% persist-buffer blocked cycles "
                "(HOPS, 4 threads, RP) ===\n");
    std::printf("%-12s %10s\n", "workload", "blocked%");
    std::vector<double> pct;
    for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
        const RunResult &r = sr.at(i);
        const double p = 100.0 * static_cast<double>(r.cyclesBlocked) /
                         static_cast<double>(r.totalCoreCycles());
        pct.push_back(p);
        std::printf("%-12s %9.1f%%\n", sr.jobs[i].workload.c_str(), p);
    }
    std::printf("%-12s %9.1f%%   (paper: ~26%% average)\n", "average",
                amean(pct));
    finishSweep(args, sr);
    return 0;
}
