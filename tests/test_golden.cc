/**
 * @file
 * Results golden: simulated numbers pinned to a committed table.
 *
 * Two Table III workloads under every model x persistency pair, and
 * crash verdicts at two ticks for the release-persistency models that
 * enumerate epochs (ASAP_RP, HOPS_RP). A refactor that claims "same
 * results" must leave every row unchanged. A change that alters
 * results on purpose prints each differing row in table syntax; paste
 * the new rows and bump the result-cache salt (src/exp/cache.cc).
 */

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "sim/config.hh"

namespace asap
{
namespace
{

constexpr unsigned kOps = 50;
constexpr std::uint64_t kSeed = 1;

struct RunRow
{
    const char *workload;
    const char *model; //!< e.g. "asap_rp"
    std::uint64_t runTicks;
    std::uint64_t eventsExecuted;
    std::uint64_t pmWrites;
    std::uint64_t pbFullStalls; //!< RunResult::cyclesStalled
    std::uint64_t persistP99;
};

struct CrashRow
{
    const char *workload;
    const char *model;
    std::uint64_t crashTick;
    const char *frontier; //!< committedUpTo, comma-separated
    std::uint64_t undoReplayed;
    bool consistent;
};

const RunRow kRuns[] = {
    {"nstore", "baseline_ep", 184357, 8104, 1179, 0, 0},
    {"nstore", "baseline_rp", 184357, 8104, 1179, 0, 0},
    {"nstore", "hops_ep", 158894, 11010, 1183, 0, 304},
    {"nstore", "hops_rp", 158894, 11002, 1183, 0, 256},
    {"nstore", "asap_ep", 158882, 11193, 1183, 0, 272},
    {"nstore", "asap_rp", 158882, 11183, 1183, 0, 248},
    {"nstore", "eadr_ep", 158637, 11191, 1179, 0, 4},
    {"nstore", "eadr_rp", 158637, 11191, 1179, 0, 4},
    {"heap", "baseline_ep", 297323, 18902, 1399, 0, 0},
    {"heap", "baseline_rp", 297323, 18902, 1399, 0, 0},
    {"heap", "hops_ep", 326172, 41609, 1537, 1433, 0},
    {"heap", "hops_rp", 275761, 22052, 1278, 183230, 0},
    {"heap", "asap_ep", 86005, 25898, 1400, 0, 0},
    {"heap", "asap_rp", 86005, 24463, 1391, 0, 0},
    {"heap", "eadr_ep", 85615, 20984, 977, 0, 0},
    {"heap", "eadr_rp", 85615, 20984, 977, 0, 0},
};

const CrashRow kCrashes[] = {
    {"nstore", "asap_rp", 52960, "68,69,69,66", 0, true},
    {"nstore", "asap_rp", 105921, "136,136,134,133", 0, true},
    {"nstore", "hops_rp", 52964, "68,69,69,66", 0, true},
    {"nstore", "hops_rp", 105929, "136,136,134,133", 0, true},
    {"heap", "asap_rp", 28668, "159,169,173,141", 6, true},
    {"heap", "asap_rp", 57336, "313,329,349,345", 5, true},
    {"heap", "hops_rp", 91920, "164,180,176,154", 0, true},
    {"heap", "hops_rp", 183840, "318,339,350,358", 0, true},
};

SimConfig
configFor(const std::string &model)
{
    const std::size_t us = model.find('_');
    SimConfig cfg;
    cfg.model = parseModelKind(model.substr(0, us));
    cfg.persistency = parsePersistencyModel(model.substr(us + 1));
    cfg.numCores = 4;
    cfg.seed = kSeed;
    return cfg;
}

WorkloadParams
params()
{
    WorkloadParams p;
    p.opsPerThread = kOps;
    p.seed = kSeed;
    return p;
}

std::string
joined(const std::vector<std::uint64_t> &v)
{
    std::string s;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0)
            s += ',';
        s += std::to_string(v[i]);
    }
    return s;
}

TEST(Golden, RunResultsMatchTable)
{
    ASSERT_EQ(std::size(kRuns), 16u);
    for (const RunRow &row : kRuns) {
        const RunResult r =
            runExperiment(row.workload, configFor(row.model), params());
        const bool same = r.runTicks == row.runTicks &&
                          r.eventsExecuted == row.eventsExecuted &&
                          r.pmWrites == row.pmWrites &&
                          r.cyclesStalled == row.pbFullStalls &&
                          r.persistP99 == row.persistP99;
        EXPECT_TRUE(same) << "now: {\"" << row.workload << "\", \""
                          << row.model << "\", " << r.runTicks << ", "
                          << r.eventsExecuted << ", " << r.pmWrites
                          << ", " << r.cyclesStalled << ", "
                          << r.persistP99 << "},";
    }
}

TEST(Golden, CrashVerdictsMatchTable)
{
    ASSERT_EQ(std::size(kCrashes), 8u);
    for (const CrashRow &row : kCrashes) {
        const CrashRunResult c = runCrashExperiment(
            row.workload, configFor(row.model), params(), row.crashTick);
        const CrashVerdict &v = c.verdict;
        const std::string frontier = joined(v.committedUpTo);
        const bool same = frontier == row.frontier &&
                          v.undoReplayed == row.undoReplayed &&
                          v.consistent == row.consistent;
        EXPECT_TRUE(same) << "now: {\"" << row.workload << "\", \""
                          << row.model << "\", " << row.crashTick
                          << ", \"" << frontier << "\", "
                          << v.undoReplayed << ", "
                          << (v.consistent ? "true" : "false") << "},";
    }
}

} // namespace
} // namespace asap
