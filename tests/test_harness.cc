/**
 * @file
 * Tests for the experiment runner and the microbenchmark generators
 * the benches rely on.
 */

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/system.hh"
#include "pm/recorder.hh"
#include "sim/log.hh"
#include "workloads/synthetic.hh"

namespace asap
{
namespace
{

/** Minor page faults the calling thread has taken so far. */
long
threadMinorFaults()
{
    struct rusage ru;
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_minflt;
}

// Writing the cache tag arrays (an LLC plus four L2s, ~9.5 MB) in full
// at construction costs 2,336 minor faults per default System on a
// 4-CPU Linux host. Construction must only fault in what it writes.
TEST(System, DefaultConstructionFaultsInFewPages)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory takes page faults too";
#endif
    { System warm{SimConfig{}}; } // one-time allocator growth
    const long before = threadMinorFaults();
    { System sys{SimConfig{}}; }
    const long faults = threadMinorFaults() - before;
    EXPECT_LT(faults, 2336 / 4) << faults;
}

TEST(Runner, FillsAllFigureFields)
{
    setLogQuiet(true);
    WorkloadParams p;
    p.opsPerThread = 30;
    RunResult r = runExperiment("dash-eh", ModelKind::Asap,
                                PersistencyModel::Release, 4, p);
    EXPECT_EQ(r.workload, "dash-eh");
    EXPECT_EQ(r.model, ModelKind::Asap);
    EXPECT_EQ(r.cores, 4u);
    EXPECT_GT(r.runTicks, 0u);
    EXPECT_GT(r.pmWrites, 0u);
    EXPECT_GT(r.epochs, 0u);
    EXPECT_GT(r.totalCoreCycles(), r.runTicks);
}

TEST(Runner, BandwidthMicrobenchByName)
{
    setLogQuiet(true);
    WorkloadParams p;
    p.opsPerThread = 20;
    RunResult r = runExperiment("bandwidth", ModelKind::Asap,
                                PersistencyModel::Release, 4, p);
    // 20 bursts x 4 lines x 4 threads = 320 stores issued.
    EXPECT_GE(r.entriesInserted, 300u);
}

TEST(Runner, HandoffMicrobenchByName)
{
    setLogQuiet(true);
    WorkloadParams p;
    p.opsPerThread = 25;
    RunResult hops = runExperiment("handoff", ModelKind::Hops,
                                   PersistencyModel::Release, 4, p);
    RunResult asap = runExperiment("handoff", ModelKind::Asap,
                                   PersistencyModel::Release, 4, p);
    // The entire point of the microbench: CDR beats polling clearly.
    EXPECT_LT(asap.runTicks * 2, hops.runTicks);
    EXPECT_GT(hops.crossDeps, 50u);
}

TEST(Runner, CustomConfigRespected)
{
    setLogQuiet(true);
    WorkloadParams p;
    p.opsPerThread = 20;
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.numCores = 2;
    cfg.numMCs = 4;
    RunResult r = runExperiment("echo", cfg, p);
    EXPECT_EQ(r.cores, 2u);
    EXPECT_GT(r.runTicks, 0u);
}

TEST(HandoffGen, EveryHandoffHasAnEdge)
{
    TraceRecorder rec(4, 3);
    genHandoffMicrobench(rec, 10);
    TraceSet ts = rec.finish();
    unsigned edged = 0, acquires = 0;
    for (const auto &ops : ts.threads) {
        for (const TraceOp &op : ops) {
            if (op.type == OpType::Acquire) {
                ++acquires;
                edged += op.srcThread >= 0 ? 1 : 0;
            }
        }
    }
    EXPECT_EQ(acquires, 40u);
    EXPECT_EQ(edged, 39u) << "all but the very first acquire chain";
}

} // namespace
} // namespace asap
