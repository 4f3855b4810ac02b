/**
 * @file
 * asap_run: command-line simulation driver (the library's equivalent
 * of the artifact's run.sh + gem5 invocation).
 *
 * Usage:
 *   asap_run <workload> [key=value ...]
 *
 * Accepted keys: every SimConfig knob (model=, persistency=,
 * numCores=, rtEntries=, ...) plus ops=<N> and updatePct=<P> for the
 * workload. A trace is a pure function of these arguments, so a
 * second model sees the same ops by rerunning with only model=
 * changed. Prints the full gem5-style stats dump (Table VI names
 * included).
 *
 * Examples:
 *   asap_run cceh model=asap persistency=rp numCores=8
 *   asap_run nstore model=hops ops=500
 *   asap_run serve:kv-zipf model=asap numCores=4 ops=5000
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "harness/system.hh"
#include "serve/op_stream.hh"
#include "serve/scenario.hh"
#include "workloads/registry.hh"

using namespace asap;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <workload> [key=value ...]\n\n",
                     argv[0]);
        std::fprintf(stderr, "workloads:\n");
        for (const WorkloadInfo &w : allWorkloads()) {
            std::fprintf(stderr, "  %-12s %s\n", w.name.c_str(),
                         w.description.c_str());
        }
        return 2;
    }

    SimConfig cfg;
    WorkloadParams params;
    params.opsPerThread = 200;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("ops=", 0) == 0) {
            params.opsPerThread = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 4, nullptr, 0));
        } else if (arg.rfind("updatePct=", 0) == 0) {
            params.updatePct = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 10, nullptr, 0));
        } else {
            cfg.override(arg);
        }
    }
    params.seed = cfg.seed;

    std::printf("workload=%s model=%s persistency=%s cores=%u mcs=%u "
                "ops=%u\n",
                argv[1], toString(cfg.model).c_str(),
                toString(cfg.persistency).c_str(), cfg.numCores,
                cfg.numMCs, params.opsPerThread);

    System sys(cfg);
    std::unique_ptr<ServeStream> stream;
    if (isServeWorkload(argv[1])) {
        // Serving scenarios generate ops on demand: the
        // constant-memory streaming path, no materialized trace.
        const ServeScenario &sc = findServeScenario(argv[1]);
        stream = std::make_unique<ServeStream>(sc, cfg.numCores, params);
        sys.loadStream(*stream);
    } else {
        sys.loadTrace(buildTrace(argv[1], cfg.numCores, params));
    }
    const bool ok = sys.run();
    std::printf("%s\n", sys.stats().dump().c_str());
    std::printf("sim.finished %d\n", ok ? 1 : 0);
    return ok ? 0 : 1;
}
