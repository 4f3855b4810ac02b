/**
 * @file
 * Robustness sweeps: pathological configurations (tiny buffers,
 * single banks, one or many controllers, line-grained interleave)
 * must still run to completion and, under ASAP, crash consistently.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/system.hh"
#include "recovery/checker.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"

namespace asap
{
namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.opsPerThread = 25;
    p.seed = 4;
    return p;
}

/** One named configuration mutation. */
struct ConfigCase
{
    const char *name;
    const char *override1;
    const char *override2;
};

class PathologicalConfigs : public ::testing::TestWithParam<ConfigCase>
{
};

TEST_P(PathologicalConfigs, RunsAndCrashesConsistently)
{
    setLogQuiet(true);
    const ConfigCase &c = GetParam();
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.override(c.override1);
    if (c.override2)
        cfg.override(c.override2);
    cfg.maxRunTicks = 2'000'000'000ULL;

    // Liveness.
    {
        System sys(cfg);
        sys.loadTrace(buildTrace("cceh", cfg.numCores, tinyParams()));
        EXPECT_TRUE(sys.run()) << c.name << " deadlocked";
    }
    // Crash consistency.
    {
        System sys(cfg, /*keep_run_log=*/true);
        sys.loadTrace(buildTrace("cceh", cfg.numCores, tinyParams()));
        sys.crashAt(30'000);
        CheckResult r = checkCrashConsistency(
            sys.runLog(), sys.nvm(), sys.committedUpTo());
        EXPECT_TRUE(r.ok) << c.name << ": " << r.message;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, PathologicalConfigs,
    ::testing::Values(
        ConfigCase{"oneMc", "numMCs=1", nullptr},
        ConfigCase{"fourMcs", "numMCs=4", nullptr},
        ConfigCase{"lineInterleave", "interleaveBytes=64", nullptr},
        ConfigCase{"tinyWpq", "wpqEntries=2", "nvmBanks=1"},
        ConfigCase{"tinyPb", "pbEntries=4", "pbMaxInflight=1"},
        ConfigCase{"tinyEt", "etEntries=4", nullptr},
        ConfigCase{"tinyRt", "rtEntries=2", nullptr},
        ConfigCase{"noCombine", "wpqCombineWindow=0", nullptr},
        ConfigCase{"slowNvm", "pmWriteLatency=720", nullptr},
        ConfigCase{"noXpBuffer", "xpBufferLines=0", nullptr},
        ConfigCase{"eightCores", "numCores=8", nullptr}),
    [](const ::testing::TestParamInfo<ConfigCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace asap
