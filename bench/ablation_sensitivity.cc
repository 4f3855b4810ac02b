/**
 * @file
 * Ablation / sensitivity sweeps for ASAP's design parameters:
 *
 *  - Recovery-table size: the paper argues a small RT suffices
 *    because NACKs degrade gracefully to conservative flushing
 *    (Section V-D / Figure 12 discussion).
 *  - Persist-buffer size: Figure 11's "similar performance with
 *    smaller PBs" expectation.
 *  - NVM write bandwidth (banks per controller): Section I's claim
 *    that ASAP "offers greater performance benefit with increasing
 *    NVM write bandwidth".
 */

#include "bench/bench_util.hh"

using namespace asap;

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    BenchArgs args = BenchArgs::parse(argc, argv);
    const std::string w =
        args.workload.empty() ? "p-art" : args.workload;
    const WorkloadParams p = args.params();

    // Every section's jobs go into one deduplicated parallel sweep;
    // the tables below read results back by index.
    JobSet set;
    auto addKind = [&](const std::string &name, ModelKind kind,
                       SimConfig cfg) {
        cfg.model = kind;
        return set.add(name, cfg, p);
    };

    const unsigned rtSizes[] = {2u, 4u, 8u, 16u, 32u, 64u};
    std::vector<std::size_t> rtIdx;
    for (unsigned rt : rtSizes) {
        SimConfig cfg = args.baseConfig();
        cfg.rtEntries = rt;
        rtIdx.push_back(addKind(w, ModelKind::Asap, cfg));
    }

    const unsigned pbSizes[] = {8u, 16u, 32u, 64u};
    std::vector<std::size_t> pbAsap, pbHops;
    for (unsigned pb : pbSizes) {
        SimConfig cfg = args.baseConfig();
        cfg.pbEntries = pb;
        pbAsap.push_back(addKind(w, ModelKind::Asap, cfg));
        pbHops.push_back(addKind(w, ModelKind::Hops, cfg));
    }

    const unsigned bankCounts[] = {2u, 4u, 8u, 16u, 24u, 32u};
    std::vector<std::size_t> bwAsap, bwHops;
    for (unsigned banks : bankCounts) {
        SimConfig cfg = args.baseConfig();
        cfg.nvmBanks = banks;
        bwAsap.push_back(addKind("bandwidth", ModelKind::Asap, cfg));
        bwHops.push_back(addKind("bandwidth", ModelKind::Hops, cfg));
    }

    const unsigned mcCounts[] = {1u, 2u, 4u};
    std::vector<std::size_t> mcAsap, mcHops;
    for (unsigned mcs : mcCounts) {
        SimConfig cfg = args.baseConfig();
        cfg.numMCs = mcs;
        cfg.nvmBanks = 48 / mcs; // fixed aggregate write bandwidth
        mcAsap.push_back(addKind("bandwidth", ModelKind::Asap, cfg));
        mcHops.push_back(addKind("bandwidth", ModelKind::Hops, cfg));
    }

    SimConfig defCfg = args.baseConfig();
    const std::size_t hoHops = addKind("handoff", ModelKind::Hops,
                                       defCfg);
    const std::size_t hoAsap = addKind("handoff", ModelKind::Asap,
                                       defCfg);
    const std::size_t hoEadr = addKind("handoff", ModelKind::Eadr,
                                       defCfg);

    if (maybeRunShard(args, set.jobs()))
        return 0;
    const SweepResult sr = runJobs(set.jobs(), args.options());

    std::printf("=== Ablation: recovery-table entries (ASAP, %s) ===\n",
                w.c_str());
    std::printf("%8s %10s %10s %10s\n", "rtSize", "cycles",
                "nacks", "rtMax");
    for (std::size_t i = 0; i < std::size(rtSizes); ++i) {
        const RunResult &r = sr.at(rtIdx[i]);
        std::printf("%8u %10llu %10llu %10llu\n", rtSizes[i],
                    static_cast<unsigned long long>(r.runTicks),
                    static_cast<unsigned long long>(r.nacks),
                    static_cast<unsigned long long>(r.rtMaxOccupancy));
    }

    std::printf("\n=== Ablation: persist-buffer entries (%s) ===\n",
                w.c_str());
    std::printf("%8s %12s %12s\n", "pbSize", "ASAP", "HOPS");
    for (std::size_t i = 0; i < std::size(pbSizes); ++i) {
        const RunResult &a = sr.at(pbAsap[i]);
        const RunResult &h = sr.at(pbHops[i]);
        std::printf("%8u %12llu %12llu\n", pbSizes[i],
                    static_cast<unsigned long long>(a.runTicks),
                    static_cast<unsigned long long>(h.runTicks));
    }

    std::printf("\n=== Sensitivity: NVM write bandwidth "
                "(256B burst microbenchmark) ===\n");
    std::printf("%8s %12s %12s %10s\n", "banks", "ASAP", "HOPS",
                "ASAP/HOPS");
    for (std::size_t i = 0; i < std::size(bankCounts); ++i) {
        const RunResult &a = sr.at(bwAsap[i]);
        const RunResult &h = sr.at(bwHops[i]);
        std::printf("%8u %12llu %12llu %9.2fx\n", bankCounts[i],
                    static_cast<unsigned long long>(a.runTicks),
                    static_cast<unsigned long long>(h.runTicks),
                    static_cast<double>(h.runTicks) /
                        static_cast<double>(a.runTicks));
    }
    std::printf("(paper: ASAP's advantage grows with NVM write "
                "bandwidth)\n");

    std::printf("\n=== Sensitivity: memory-controller count "
                "(256B burst microbenchmark, fixed total "
                "bandwidth) ===\n");
    std::printf("%8s %12s %12s %10s\n", "MCs", "ASAP", "HOPS",
                "HOPS/ASAP");
    for (std::size_t i = 0; i < std::size(mcCounts); ++i) {
        const RunResult &a = sr.at(mcAsap[i]);
        const RunResult &h = sr.at(mcHops[i]);
        std::printf("%8u %12llu %12llu %9.2fx\n", mcCounts[i],
                    static_cast<unsigned long long>(a.runTicks),
                    static_cast<unsigned long long>(h.runTicks),
                    static_cast<double>(h.runTicks) /
                        static_cast<double>(a.runTicks));
    }
    std::printf("(Section III: conservative designs pay for ordering "
                "across controllers; ASAP overlaps them)\n");

    std::printf("\n=== Ablation: cross-thread dependency resolution "
                "(lock ping-pong) ===\n");
    std::printf("%-20s %12s %12s %10s\n", "mechanism", "cycles",
                "per-handoff", "vsHOPS");
    {
        const RunResult &h = sr.at(hoHops);
        const RunResult &a = sr.at(hoAsap);
        const RunResult &e = sr.at(hoEadr);
        const double handoffs = 4.0 * p.opsPerThread;
        std::printf("%-20s %12llu %12.0f %10s\n", "HOPS polling",
                    static_cast<unsigned long long>(h.runTicks),
                    h.runTicks / handoffs, "1.00");
        std::printf("%-20s %12llu %12.0f %9.2fx\n", "ASAP CDR",
                    static_cast<unsigned long long>(a.runTicks),
                    a.runTicks / handoffs,
                    static_cast<double>(h.runTicks) / a.runTicks);
        std::printf("%-20s %12llu %12.0f %9.2fx\n", "eADR (none)",
                    static_cast<unsigned long long>(e.runTicks),
                    e.runTicks / handoffs,
                    static_cast<double>(h.runTicks) / e.runTicks);
    }
    std::printf("(Section IV-E: direct CDR messages avoid the "
                "polling latency of HOPS's global register)\n");
    finishSweep(args, sr);
    return 0;
}
