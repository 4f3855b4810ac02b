/**
 * @file
 * Tests for the streaming request-serving subsystem (src/serve/):
 * stream purity and stream-vs-materialized byte-identity, fixed-seed
 * determinism across engine workers, Zipfian frequency sanity,
 * log-histogram percentile accuracy, the constant-memory buffer bound
 * and the materialization guardrail.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exp/cache.hh"
#include "exp/engine.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "serve/op_stream.hh"
#include "serve/scenario.hh"
#include "serve/zipf.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace asap
{
namespace
{

WorkloadParams
serveParams(unsigned requests = 60)
{
    WorkloadParams p;
    p.opsPerThread = requests; // requests per thread, not raw ops
    p.keySpace = 512;
    p.seed = 11;
    return p;
}

bool
sameOp(const TraceOp &a, const TraceOp &b)
{
    return a.type == b.type && a.isPm == b.isPm &&
           a.cycles == b.cycles && a.addr == b.addr &&
           a.value == b.value && a.srcThread == b.srcThread &&
           a.srcRelease == b.srcRelease;
}

} // namespace

// The stream must be a pure function of (scenario, threads, params):
// draining thread-by-thread and draining round-robin must hand every
// thread the exact same op sequence.
TEST(ServeStream, PureAcrossPullOrders)
{
    const ServeScenario &sc = findServeScenario("serve:tenant-mix");
    const WorkloadParams p = serveParams();
    const unsigned threads = 6;

    ServeStream major(sc, threads, p);
    const TraceSet byThread = materializeStream(major);

    ServeStream rr(sc, threads, p);
    TraceSet byRoundRobin(threads);
    std::vector<bool> done(threads, false);
    unsigned live = threads;
    while (live) {
        for (unsigned t = 0; t < threads; ++t) {
            if (done[t])
                continue;
            const TraceOp op = rr.next(t);
            byRoundRobin.threads[t].push_back(op);
            if (op.type == OpType::End) {
                done[t] = true;
                --live;
            }
        }
    }

    ASSERT_EQ(byThread.threads.size(), byRoundRobin.threads.size());
    for (unsigned t = 0; t < threads; ++t) {
        ASSERT_EQ(byThread.threads[t].size(),
                  byRoundRobin.threads[t].size())
            << "thread " << t;
        for (std::size_t i = 0; i < byThread.threads[t].size(); ++i) {
            ASSERT_TRUE(sameOp(byThread.threads[t][i],
                               byRoundRobin.threads[t][i]))
                << "thread " << t << " op " << i;
        }
    }
}

// Simulating through the streaming path and through a materialized
// copy of the same stream must be byte-identical — runTicks, every
// counter, every histogram. This is the compatibility contract that
// keeps record/replay and crash experiments on the materialized path.
TEST(ServeStream, StreamAndMaterializedSimulateIdentically)
{
    const ServeScenario &sc = findServeScenario("serve:kv-zipf");
    const WorkloadParams p = serveParams(40);
    SimConfig cfg;
    cfg.numCores = 4;
    cfg.model = ModelKind::Asap;
    cfg.persistency = PersistencyModel::Release;

    ServeStream streamed(sc, cfg.numCores, p);
    System live(cfg);
    live.loadStream(streamed);
    ASSERT_TRUE(live.run());

    ServeStream source(sc, cfg.numCores, p);
    System replay(cfg);
    replay.loadTrace(materializeStream(source));
    ASSERT_TRUE(replay.run());

    EXPECT_EQ(live.runTicks(), replay.runTicks());
    EXPECT_EQ(live.stats().dump(), replay.stats().dump());
}

// One serve job per scenario, executed with 1 worker and with 8, each
// against its own cold cache: every result field must match.
TEST(ServeStream, DeterministicAcrossEngineWorkers)
{
    std::vector<ExperimentJob> jobs;
    for (const ServeScenario &sc : allServeScenarios()) {
        ExperimentJob j;
        j.workload = sc.workloadName();
        j.cfg.numCores = 4;
        j.params = serveParams(30);
        jobs.push_back(j);
    }

    ResultCache cold1, cold8;
    RunOptions opt1, opt8;
    opt1.jobs = 1;
    opt1.cache = &cold1;
    opt8.jobs = 8;
    opt8.cache = &cold8;
    const SweepResult a = runJobs(jobs, opt1);
    const SweepResult b = runJobs(jobs, opt8);

    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].runTicks, b.results[i].runTicks);
        EXPECT_EQ(a.results[i].pmWrites, b.results[i].pmWrites);
        EXPECT_EQ(a.results[i].persistSamples,
                  b.results[i].persistSamples);
        EXPECT_EQ(a.results[i].persistP99, b.results[i].persistP99);
        EXPECT_EQ(a.results[i].persistP999, b.results[i].persistP999);
        EXPECT_EQ(a.results[i].serveRequests,
                  b.results[i].serveRequests);
    }
}

// Two independently seeded runs of the same scenario must produce the
// same requests; a different seed must not.
TEST(ServeStream, SeedSelectsTheStream)
{
    const ServeScenario &sc = findServeScenario("serve:kv-zipf");
    WorkloadParams p = serveParams(25);

    ServeStream s1(sc, 2, p);
    ServeStream s2(sc, 2, p);
    const TraceSet a = materializeStream(s1);
    const TraceSet b = materializeStream(s2);
    ASSERT_EQ(a.totalOps(), b.totalOps());

    p.seed = 12;
    ServeStream s3(sc, 2, p);
    const TraceSet c = materializeStream(s3);
    bool differs = a.totalOps() != c.totalOps();
    for (unsigned t = 0; !differs && t < 2; ++t) {
        for (std::size_t i = 0;
             !differs && i < std::min(a.threads[t].size(),
                                      c.threads[t].size());
             ++i) {
            differs = !sameOp(a.threads[t][i], c.threads[t][i]);
        }
    }
    EXPECT_TRUE(differs);
}

// theta=0.99 must concentrate mass on low ranks: rank 0 clearly beats
// a deep-tail rank, and the draw histogram must be far from uniform.
TEST(Zipf, FrequencySanity)
{
    const std::uint64_t items = 1000;
    ZipfSampler zipf(items, 0.99);
    Rng rng(42);

    std::vector<std::uint64_t> hits(items, 0);
    const unsigned draws = 200000;
    for (unsigned i = 0; i < draws; ++i)
        ++hits[zipf.nextRank(rng)];

    EXPECT_EQ(std::max_element(hits.begin(), hits.end()) -
                  hits.begin(),
              0);
    // Rank 0 draws P ~ 1/zeta(1000, 0.99) ~ 13%; uniform would be
    // 0.1%. Anything above 5% is unambiguously Zipfian.
    EXPECT_GT(hits[0], draws / 20);
    EXPECT_GT(hits[0], 20 * hits[900]);

    // The key scrambler must spread the hot ranks across the
    // keyspace, not cluster them at low indices.
    std::vector<std::uint64_t> keyHits(items, 0);
    for (unsigned i = 0; i < 20000; ++i)
        ++keyHits[zipf.nextKeyIndex(rng)];
    std::uint64_t lowHalf = 0, total = 0;
    for (std::uint64_t k = 0; k < items; ++k) {
        total += keyHits[k];
        if (k < items / 2)
            lowHalf += keyHits[k];
    }
    EXPECT_GT(lowHalf, total / 4);
    EXPECT_LT(lowHalf, 3 * total / 4);
}

// percentile() returns the lower bound of the covering bucket: never
// above the exact order statistic, within one sub-bucket (6.25%) of
// it, and exact for max when the bucket width allows.
TEST(LogHistogram, PercentileMatchesBruteForce)
{
    LogHistogram h;
    std::vector<std::uint64_t> samples;
    Rng rng(7);
    for (unsigned i = 0; i < 20000; ++i) {
        // Log-uniform-ish spread over [1, 2^30).
        const std::uint64_t v =
            (std::uint64_t(1) << rng.below(30)) + rng.below(1u << 20);
        samples.push_back(v);
        h.sample(v);
    }
    std::sort(samples.begin(), samples.end());

    for (double pct : {50.0, 90.0, 99.0, 99.9}) {
        const std::size_t idx = std::min(
            samples.size() - 1,
            static_cast<std::size_t>(pct / 100.0 *
                                     double(samples.size())));
        const std::uint64_t exact = samples[idx];
        const std::uint64_t est = h.percentile(pct);
        EXPECT_LE(est, exact) << "pct " << pct;
        EXPECT_GE(double(est), 0.9375 * double(exact) - 1.0)
            << "pct " << pct;
    }
    EXPECT_EQ(h.max(), samples.back());
    EXPECT_EQ(h.count(), samples.size());
}

// The per-thread ring is the constant-memory witness: its high-water
// mark must be bounded by the chunk size plus one request, however
// many requests the run asks for.
TEST(ServeStream, BufferBoundIndependentOfRunLength)
{
    const ServeScenario &sc = findServeScenario("serve:tenant-mix");
    for (unsigned requests : {50u, 2000u}) {
        WorkloadParams p = serveParams(requests);
        ServeStream s(sc, 3, p);
        const TraceSet ts = materializeStream(s);
        EXPECT_GT(ts.totalOps(), requests); // generated something real
        EXPECT_LT(s.peakBufferedOps(), 1024u) << requests;
    }
}

// Materializing past the op cap must die loudly and point at the
// streaming alternative instead of exhausting memory.
TEST(ServeStreamDeathTest, MaterializeGuardrailFiresAtCap)
{
    const ServeScenario &sc = findServeScenario("serve:kv-zipf");
    const WorkloadParams p = serveParams(1000);
    EXPECT_DEATH(
        {
            ServeStream s(sc, 4, p);
            materializeStream(s, 500);
        },
        "op cap");
}

} // namespace asap
