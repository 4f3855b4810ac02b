/**
 * @file
 * Tests for the sweep service (src/svc/): JSON exactness, frame
 * robustness against truncated/oversized/garbage input, the
 * full-fidelity job codec (wire jobKey == local jobKey), priority +
 * fair-share scheduling, and the end-to-end daemon guarantees —
 * byte-identical artifacts vs the batch path, 100%-hit warm
 * resubmits, mid-sweep cancellation, concurrent clients, probe-phase
 * memoization, and emergency lease release on fatal signals.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "dist/lease.hh"
#include "exp/cache.hh"
#include "exp/crash_campaign.hh"
#include "exp/emit.hh"
#include "exp/engine.hh"
#include "svc/client.hh"
#include "svc/daemon.hh"
#include "svc/json.hh"
#include "svc/protocol.hh"
#include "svc/scheduler.hh"
#include "svc/wire.hh"

namespace asap
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory under the system temp dir. */
std::string
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

WorkloadParams
tinyParams(unsigned ops = 20, std::uint64_t seed = 7)
{
    WorkloadParams p;
    p.opsPerThread = ops;
    p.seed = seed;
    return p;
}

/** A small cross-product sweep (with an intra-sweep duplicate). */
std::vector<ExperimentJob>
sampleJobs(unsigned ops = 20, std::uint64_t seed = 7)
{
    SweepSpec spec;
    spec.workloads = {"queue", "skiplist"};
    spec.models = {{ModelKind::Hops, PersistencyModel::Release},
                   {ModelKind::Asap, PersistencyModel::Release}};
    spec.coreCounts = {2};
    spec.params = tinyParams(ops, seed);
    std::vector<ExperimentJob> jobs = spec.expand();
    jobs.push_back(jobs.front()); // duplicate: follows its leader
    return jobs;
}

std::string
csvOf(const SweepResult &sr)
{
    std::ostringstream os;
    emitCsv(os, sr);
    return os.str();
}

// ---------------------------------------------------------------- Json

TEST(SvcJson, U64RoundTripsExactly)
{
    // 2^64-1 is outside double precision; a one-ULP wobble would
    // change job cache keys, so numbers must survive as text.
    const std::uint64_t big = 18446744073709551615ull;
    Json v = Json::object();
    v.set("maxRunTicks", Json::number(big));
    const std::string text = v.dump();
    EXPECT_NE(text.find("18446744073709551615"), std::string::npos);

    Json back;
    ASSERT_TRUE(Json::parse(text, back));
    EXPECT_EQ(back.get("maxRunTicks").asU64(), big);
    EXPECT_EQ(back.dump(), text); // literal preserved, not re-rendered
}

TEST(SvcJson, ObjectsSerializeInInsertionOrder)
{
    Json v = Json::object();
    v.set("zebra", Json::number(std::uint64_t{1}));
    v.set("alpha", Json::number(std::uint64_t{2}));
    EXPECT_EQ(v.dump(), "{\"zebra\":1,\"alpha\":2}");
}

TEST(SvcJson, ParserRejectsMalformedInput)
{
    Json out;
    std::string why;
    EXPECT_FALSE(Json::parse("", out, &why));
    EXPECT_FALSE(Json::parse("{", out, &why));
    EXPECT_FALSE(Json::parse("{\"a\":1} trailing", out, &why));
    EXPECT_FALSE(Json::parse("{\"a\":}", out, &why));
    EXPECT_FALSE(Json::parse("\"bad \\q escape\"", out, &why));
    EXPECT_FALSE(Json::parse("nulll", out, &why));

    // Depth bomb: deeper than the parser's limit must fail cleanly.
    std::string deep(64, '[');
    deep += std::string(64, ']');
    EXPECT_FALSE(Json::parse(deep, out, &why));
    EXPECT_FALSE(why.empty());
}

TEST(SvcJson, StringEscapesRoundTrip)
{
    Json v = Json::str(std::string("tab\there \"q\" \n\x01") + "\xE2\x82\xAC");
    Json back;
    ASSERT_TRUE(Json::parse(v.dump(), back));
    EXPECT_EQ(back.asString(), v.asString());
}

// ------------------------------------------------------------- framing

struct SocketPair
{
    int a = -1, b = -1;
    SocketPair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = fds[0];
        b = fds[1];
    }
    ~SocketPair()
    {
        if (a >= 0)
            ::close(a);
        if (b >= 0)
            ::close(b);
    }
};

TEST(SvcFraming, RoundTrip)
{
    SocketPair sp;
    const std::string msg = "{\"op\":\"ping\"}";
    ASSERT_EQ(writeFrame(sp.a, msg, 1000), FrameStatus::Ok);
    std::string got;
    ASSERT_EQ(readFrame(sp.b, got, 1000), FrameStatus::Ok);
    EXPECT_EQ(got, msg);

    // Empty payload is a legal frame.
    ASSERT_EQ(writeFrame(sp.a, "", 1000), FrameStatus::Ok);
    ASSERT_EQ(readFrame(sp.b, got, 1000), FrameStatus::Ok);
    EXPECT_EQ(got, "");
}

TEST(SvcFraming, CleanCloseIsEof)
{
    SocketPair sp;
    ::close(sp.a);
    sp.a = -1;
    std::string got;
    EXPECT_EQ(readFrame(sp.b, got, 1000), FrameStatus::Eof);
}

TEST(SvcFraming, TruncatedPayloadIsError)
{
    SocketPair sp;
    const std::uint32_t len = 10;
    unsigned char hdr[4] = {static_cast<unsigned char>(len), 0, 0, 0};
    ASSERT_EQ(::send(sp.a, hdr, 4, 0), 4);
    ASSERT_EQ(::send(sp.a, "abc", 3, 0), 3);
    ::close(sp.a); // die mid-frame
    sp.a = -1;
    std::string got;
    EXPECT_EQ(readFrame(sp.b, got, 1000), FrameStatus::Error);
}

TEST(SvcFraming, TruncatedLengthPrefixIsError)
{
    SocketPair sp;
    ASSERT_EQ(::send(sp.a, "\x05\x00", 2, 0), 2);
    ::close(sp.a);
    sp.a = -1;
    std::string got;
    EXPECT_EQ(readFrame(sp.b, got, 1000), FrameStatus::Error);
}

TEST(SvcFraming, OversizedLengthIsRejectedBeforeAllocation)
{
    SocketPair sp;
    unsigned char hdr[4] = {0xff, 0xff, 0xff, 0xff}; // ~4 GiB claim
    ASSERT_EQ(::send(sp.a, hdr, 4, 0), 4);
    std::string got;
    EXPECT_EQ(readFrame(sp.b, got, 1000), FrameStatus::TooLarge);
}

TEST(SvcFraming, SilentPeerTimesOut)
{
    SocketPair sp;
    std::string got;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(readFrame(sp.b, got, 50), FrameStatus::Timeout);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_LT(waited, 5.0); // returned promptly, no indefinite block
}

TEST(SvcFraming, ListenRejectsLiveListenerReclaimsStaleFile)
{
    const std::string dir = scratchDir("svc_listen_test");
    const std::string path = dir + "/d.sock";

    std::string why;
    const int fd1 = listenUnix(path, &why);
    ASSERT_GE(fd1, 0) << why;

    // A second daemon on the same path must be refused.
    EXPECT_LT(listenUnix(path, &why), 0);
    EXPECT_FALSE(why.empty());

    // A dead daemon leaves the socket file behind; the next listen
    // reclaims it (nothing accepts there anymore).
    ::close(fd1);
    const int fd2 = listenUnix(path, &why);
    EXPECT_GE(fd2, 0) << why;
    if (fd2 >= 0)
        ::close(fd2);
}

// ---------------------------------------------------------------- wire

TEST(SvcWire, JobKeySurvivesTheWire)
{
    std::vector<ExperimentJob> jobs = sampleJobs();

    // Edge values the codec must not wobble: a crash job, the u64
    // maxRunTicks default (2^64-1), and a negative sentinel double.
    ExperimentJob crash = jobs.front();
    crash.kind = JobKind::Crash;
    crash.crashTick = 123456789;
    jobs.push_back(crash);
    ExperimentJob sentinel = jobs[1];
    sentinel.cfg.mediaWriteGBps = -1.0;
    jobs.push_back(sentinel);

    for (const ExperimentJob &job : jobs) {
        const Json v = jobToJson(job);
        Json parsed;
        ASSERT_TRUE(Json::parse(v.dump(), parsed));
        ExperimentJob back;
        std::string why;
        ASSERT_TRUE(jobFromJson(parsed, back, &why)) << why;
        EXPECT_EQ(jobKey(back), jobKey(job))
            << "codec changed the canonical job text for "
            << describeJob(job);
    }
}

TEST(SvcWire, RejectsSemanticGarbage)
{
    const ExperimentJob good = sampleJobs().front();
    ExperimentJob out;
    std::string why;

    Json v = jobToJson(good);
    v.set("workload", Json::str("no-such-workload"));
    EXPECT_FALSE(jobFromJson(v, out, &why));

    v = jobToJson(good);
    v.set("kind", Json::str("explode"));
    EXPECT_FALSE(jobFromJson(v, out, &why));

    v = jobToJson(good);
    v.get("cfg"); // keep shape; break a semantic field
    Json cfg = v.get("cfg");
    cfg.set("model", Json::str("not-a-model"));
    v.set("cfg", cfg);
    EXPECT_FALSE(jobFromJson(v, out, &why));

    v = jobToJson(good);
    cfg = v.get("cfg");
    cfg.set("numCores", Json::number(std::uint64_t{0}));
    v.set("cfg", cfg);
    EXPECT_FALSE(jobFromJson(v, out, &why));

    v = jobToJson(good);
    cfg = v.get("cfg");
    cfg.set("mediaProfile", Json::str("unobtainium"));
    v.set("cfg", cfg);
    EXPECT_FALSE(jobFromJson(v, out, &why));

    // A crash job must carry its crash tick.
    v = jobToJson(good);
    v.set("kind", Json::str("crash"));
    EXPECT_FALSE(jobFromJson(v, out, &why));

    EXPECT_FALSE(jobFromJson(Json::number(std::uint64_t{4}), out, &why));
}

// ----------------------------------------------------------- scheduler

/** Holds the pool's single worker busy until released. */
struct WorkerGate
{
    std::promise<void> release;
    std::shared_future<void> released{release.get_future().share()};
    std::atomic<bool> entered{false};

    SchedTask task()
    {
        SchedTask t;
        t.client = "gate";
        t.fn = [this] {
            entered.store(true);
            released.wait();
        };
        return t;
    }
    void open() { release.set_value(); }
    void waitEntered()
    {
        while (!entered.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
};

SchedTask
recordingTask(const std::string &client, int priority,
              std::vector<std::string> &order, std::mutex &mu,
              const std::string &name, std::uint64_t tag = 0)
{
    SchedTask t;
    t.client = client;
    t.priority = priority;
    t.tag = tag;
    t.fn = [&order, &mu, name] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(name);
    };
    return t;
}

TEST(SvcScheduler, HighPriorityOvertakesQueuedWork)
{
    ThreadPool pool(1);
    PriorityScheduler sched(pool);
    std::vector<std::string> order;
    std::mutex mu;

    WorkerGate gate;
    sched.enqueue(gate.task());
    gate.waitEntered(); // everything below stays queued behind it

    sched.enqueue(recordingTask("a", 0, order, mu, "low1"));
    sched.enqueue(recordingTask("a", 0, order, mu, "low2"));
    sched.enqueue(recordingTask("b", 5, order, mu, "high"));

    gate.open();
    sched.drain();

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "high"); // arrived last, ran first
    EXPECT_EQ(order[1], "low1");
    EXPECT_EQ(order[2], "low2");
}

TEST(SvcScheduler, EqualPriorityIsFairAcrossClients)
{
    ThreadPool pool(1);
    PriorityScheduler sched(pool);
    std::vector<std::string> order;
    std::mutex mu;

    WorkerGate gate;
    sched.enqueue(gate.task());
    gate.waitEntered();

    // Client a floods the queue first; b and c arrive after. Fair
    // share must interleave them rather than first-come-first-served.
    sched.enqueue(recordingTask("a", 0, order, mu, "a1"));
    sched.enqueue(recordingTask("a", 0, order, mu, "a2"));
    sched.enqueue(recordingTask("a", 0, order, mu, "a3"));
    sched.enqueue(recordingTask("b", 0, order, mu, "b1"));
    sched.enqueue(recordingTask("b", 0, order, mu, "b2"));
    sched.enqueue(recordingTask("c", 0, order, mu, "c1"));

    gate.open();
    sched.drain();

    const std::vector<std::string> want = {"a1", "b1", "c1",
                                           "a2", "b2", "a3"};
    EXPECT_EQ(order, want);

    const SchedStats st = sched.stats();
    EXPECT_EQ(st.queued, 0u);
    EXPECT_EQ(st.inFlight, 0u);
    EXPECT_EQ(st.completed, 7u); // 6 + the gate task
    EXPECT_EQ(st.cancelled, 0u);
}

TEST(SvcScheduler, CancelTagRemovesQueuedWorkAndNotifies)
{
    ThreadPool pool(1);
    PriorityScheduler sched(pool);
    std::vector<std::string> order;
    std::mutex mu;
    std::atomic<unsigned> cancelNotices{0};

    WorkerGate gate;
    sched.enqueue(gate.task());
    gate.waitEntered();

    for (int i = 0; i < 3; ++i) {
        SchedTask t =
            recordingTask("x", 0, order, mu, "doomed", /*tag=*/42);
        t.onCancel = [&cancelNotices] { ++cancelNotices; };
        sched.enqueue(t);
    }
    sched.enqueue(recordingTask("y", 0, order, mu, "keeper"));

    EXPECT_EQ(sched.cancelTag(42), 3u);
    EXPECT_EQ(cancelNotices.load(), 3u);
    EXPECT_EQ(sched.cancelTag(42), 0u); // idempotent

    gate.open();
    sched.drain();

    ASSERT_EQ(order.size(), 1u); // doomed tasks never ran
    EXPECT_EQ(order[0], "keeper");
    EXPECT_EQ(sched.stats().cancelled, 3u);
}

// -------------------------------------------------------------- daemon

struct DaemonFixture
{
    std::string dir;
    DaemonOptions opt;
    std::unique_ptr<Daemon> daemon;

    explicit DaemonFixture(const std::string &name, unsigned workers,
                           bool disk_cache = false)
    {
        dir = scratchDir(name);
        opt.socketPath = dir + "/asap.sock";
        opt.workers = workers;
        if (disk_cache)
            opt.cacheDir = dir + "/cache";
        daemon = std::make_unique<Daemon>(opt);
        std::string why;
        EXPECT_TRUE(daemon->start(&why)) << why;
    }

    ClientOptions clientOptions(const std::string &name,
                                int priority = 0) const
    {
        ClientOptions c;
        c.socketPath = opt.socketPath;
        c.clientName = name;
        c.priority = priority;
        return c;
    }
};

TEST(SvcDaemon, SweepMatchesBatchByteForByteAndWarmsUp)
{
    DaemonFixture fx("svc_daemon_identity", 2, /*disk_cache=*/true);

    const std::vector<ExperimentJob> jobs = sampleJobs();

    // Ground truth: the batch engine over a private cache.
    ResultCache batchCache;
    RunOptions ro;
    ro.cache = &batchCache;
    const SweepResult batch = runJobs(jobs, ro);

    SvcClient client(fx.clientOptions("identity-test"));
    SweepResult served;
    std::string why;
    ASSERT_TRUE(client.runJobs(jobs, served, &why)) << why;

    EXPECT_EQ(csvOf(served), csvOf(batch));
    EXPECT_EQ(served.uniqueRuns, batch.uniqueRuns);
    EXPECT_EQ(served.cacheHits, batch.cacheHits);

    // Warm resubmit: the daemon's hot cache serves everything.
    SweepResult warm;
    ASSERT_TRUE(client.runJobs(jobs, warm, &why)) << why;
    EXPECT_EQ(warm.uniqueRuns, 0u);
    EXPECT_EQ(warm.cacheHits, warm.jobs.size());
    EXPECT_EQ(csvOf(warm), csvOf(batch)); // identical even when cached

    const DaemonStats ds = fx.daemon->stats();
    EXPECT_EQ(ds.sweepsAdmitted, 2u);
    EXPECT_GT(ds.resultsStreamed, 0u);
}

TEST(SvcDaemon, ServesConcurrentClients)
{
    DaemonFixture fx("svc_daemon_concurrent", 2);

    // Three clients, three distinct sweeps (different seeds), all in
    // flight at once.
    std::vector<std::thread> threads;
    std::vector<std::string> errors(3);
    // One byte per client: vector<bool> packs the flags into one
    // word, and three threads writing it would race.
    std::vector<char> ok(3, 0);
    for (int c = 0; c < 3; ++c) {
        threads.emplace_back([&, c] {
            const std::vector<ExperimentJob> jobs =
                sampleJobs(20, 100 + static_cast<std::uint64_t>(c));
            ResultCache mine;
            RunOptions ro;
            ro.cache = &mine;
            const SweepResult batch = runJobs(jobs, ro);

            SvcClient client(fx.clientOptions(
                "client-" + std::to_string(c), /*priority=*/c));
            SweepResult served;
            std::string why;
            if (!client.runJobs(jobs, served, &why)) {
                errors[c] = why;
                return;
            }
            ok[c] = csvOf(served) == csvOf(batch);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int c = 0; c < 3; ++c)
        EXPECT_TRUE(ok[c]) << "client " << c << ": " << errors[c];

    // The final result frame is streamed from inside the task, so the
    // scheduler's completion bookkeeping can trail the client's return
    // by a beat — poll briefly for quiescence.
    SchedStats st = fx.daemon->schedulerStats();
    for (int spin = 0; spin < 2000 && (st.queued || st.inFlight);
         ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        st = fx.daemon->schedulerStats();
    }
    EXPECT_EQ(st.queued, 0u);
    EXPECT_EQ(st.inFlight, 0u);
    EXPECT_EQ(st.perClient.size(), 3u);
}

TEST(SvcDaemon, CancelMidSweepNotifiesTheWaitingClient)
{
    // One worker: the first job runs while the rest sit in the
    // scheduler queue — a cancel then provably hits queued work.
    DaemonFixture fx("svc_daemon_cancel", 1);

    std::thread submitter;
    std::string why;
    bool accepted = true;
    {
        submitter = std::thread([&] {
            // Heavy enough that the sweep is still running when the
            // cancel lands.
            const std::vector<ExperimentJob> jobs =
                sampleJobs(/*ops=*/800, /*seed=*/11);
            SvcClient client(fx.clientOptions("victim"));
            SweepResult served;
            accepted = client.runJobs(jobs, served, &why);
        });
    }

    // Find the active sweep, then cancel it.
    SvcClient admin(fx.clientOptions("admin"));
    std::string sweepId;
    for (int spin = 0; spin < 4000 && sweepId.empty(); ++spin) {
        Json status;
        std::string w2;
        ASSERT_TRUE(admin.status(status, &w2)) << w2;
        const Json &sweeps = status.get("sweeps");
        if (sweeps.size() > 0)
            sweepId = sweeps.at(0).get("sweep").asString();
        else
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_FALSE(sweepId.empty()) << "sweep never appeared in status";

    std::uint64_t cancelled = 0;
    std::string w3;
    ASSERT_TRUE(admin.cancel(sweepId, &cancelled, &w3)) << w3;

    submitter.join();
    if (cancelled > 0) {
        // Queued jobs were dropped: the client must see a failed
        // sweep, not silently partial results.
        EXPECT_FALSE(accepted);
        EXPECT_NE(why.find("cancel"), std::string::npos) << why;
    } else {
        // The sweep won the race and finished whole; that's a valid
        // (if unlucky) outcome — the client saw a full result.
        EXPECT_TRUE(accepted) << why;
    }
}

TEST(SvcDaemon, RefusesMismatchedCodeSalt)
{
    // A fake daemon that answers the hello with a bogus salt: the
    // client must refuse the connection outright (mixed builds must
    // not share a cache namespace) and must not retry.
    const std::string dir = scratchDir("svc_salt_test");
    const std::string path = dir + "/fake.sock";
    std::string why;
    const int lfd = listenUnix(path, &why);
    ASSERT_GE(lfd, 0) << why;

    std::thread server([&] {
        const int cfd = ::accept(lfd, nullptr, nullptr);
        if (cfd < 0)
            return;
        std::string req;
        if (readFrame(cfd, req, 5000) == FrameStatus::Ok) {
            Json resp = Json::object();
            resp.set("ok", Json::boolean(true));
            resp.set("server", Json::str("fake"));
            resp.set("salt", Json::str("not-the-real-salt"));
            resp.set("width", Json::number(std::uint64_t{1}));
            writeFrame(cfd, resp.dump(), 5000);
        }
        ::close(cfd);
    });

    ClientOptions copt;
    copt.socketPath = path;
    copt.clientName = "salt-test";
    SvcClient client(copt);
    std::string reason;
    EXPECT_FALSE(client.connect(&reason));
    EXPECT_NE(reason.find("salt"), std::string::npos) << reason;

    server.join();
    ::close(lfd);
}

TEST(SvcDaemon, GracefulShutdownViaClientOp)
{
    DaemonFixture fx("svc_daemon_shutdown", 1);

    SvcClient client(fx.clientOptions("ops"));
    std::string why;
    ASSERT_TRUE(client.ping(&why)) << why;

    Json stats;
    ASSERT_TRUE(client.stats(stats, &why)) << why;
    EXPECT_TRUE(stats.get("cache").isObject());
    EXPECT_TRUE(stats.get("scheduler").isObject());
    EXPECT_TRUE(stats.get("daemon").isObject());

    ASSERT_TRUE(client.shutdown(&why)) << why;
    fx.daemon->waitStopped();
    EXPECT_FALSE(fx.daemon->running());
    EXPECT_FALSE(fs::exists(fx.opt.socketPath)); // socket unlinked
}

// ---------------------------------------------------------- probe memo

TEST(SvcProbeMemo, WarmCampaignSkipsTheProbePhase)
{
    CampaignSpec spec;
    spec.workloads = {"queue"};
    spec.models = {{ModelKind::Asap, PersistencyModel::Release}};
    spec.coreCounts = {2};
    spec.params = tinyParams();
    spec.ticksPerConfig = 3;

    ResultCache cache;
    RunOptions ro;
    ro.cache = &cache;

    const CampaignResult cold = runCampaign(spec, ro);
    EXPECT_FALSE(cold.probePhaseCached);

    const CampaignResult warm = runCampaign(spec, ro);
    EXPECT_TRUE(warm.probePhaseCached);
    EXPECT_EQ(csvOf(warm.sweep), csvOf(cold.sweep));
    ASSERT_EQ(warm.rows.size(), cold.rows.size());
    for (std::size_t i = 0; i < warm.rows.size(); ++i) {
        EXPECT_EQ(warm.rows[i].probeTicks, cold.rows[i].probeTicks);
        EXPECT_EQ(warm.rows[i].consistent, cold.rows[i].consistent);
    }

    // The memo must key on probe-job identity: a different seed is a
    // different probe set and must not be served from this memo.
    CampaignSpec other = spec;
    other.params.seed = 99;
    const CampaignResult miss = runCampaign(other, ro);
    EXPECT_FALSE(miss.probePhaseCached);
}

TEST(SvcProbeMemo, SerializationRejectsCorruptText)
{
    std::vector<ProbeStat> stats(2);
    stats[0] = {1000, 4};
    stats[1] = {2000, 8};
    const std::string text = serializeProbeStats(stats);

    std::vector<ProbeStat> back;
    ASSERT_TRUE(deserializeProbeStats(text, back));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].runTicks, 1000u);
    EXPECT_EQ(back[1].epochs, 8u);

    EXPECT_FALSE(deserializeProbeStats("", back));
    EXPECT_FALSE(deserializeProbeStats("probeStats v99\n", back));
    EXPECT_FALSE(
        deserializeProbeStats(text.substr(0, text.size() / 2), back));
}

// ----------------------------------------------------- emergency lease

TEST(SvcLease, EmergencyReleaseUnlinksHeldLeases)
{
    const std::string dir = scratchDir("svc_lease_emergency");
    LeaseConfig lc;
    lc.dir = dir;
    LeaseManager lm(lc);

    ASSERT_EQ(lm.tryAcquire("job-a"), LeaseManager::Acquire::Acquired);
    ASSERT_EQ(lm.tryAcquire("job-b"), LeaseManager::Acquire::Acquired);
    EXPECT_TRUE(fs::exists(lm.leasePath("job-a")));
    EXPECT_GE(LeaseManager::emergencyRegisteredCount(), 2u);

    // Normal release must disarm its slot (no double-release later).
    lm.release("job-b");
    EXPECT_FALSE(fs::exists(lm.leasePath("job-b")));

    EXPECT_GE(LeaseManager::emergencyReleaseAll(), 1u);
    EXPECT_FALSE(fs::exists(lm.leasePath("job-a")));
    EXPECT_EQ(LeaseManager::emergencyRegisteredCount(), 0u);
}

TEST(SvcLeaseDeathTest, SignalHandlerReleasesLeasesBeforeDying)
{
    const std::string dir = scratchDir("svc_lease_signal");
    const std::string leaseFile = dir + "/job-x.lease";

    EXPECT_EXIT(
        {
            installLeaseSignalHandler();
            LeaseConfig lc;
            lc.dir = dir;
            LeaseManager lm(lc);
            if (lm.tryAcquire("job-x") !=
                LeaseManager::Acquire::Acquired)
                ::_exit(3);
            ::raise(SIGTERM); // handler unlinks, then re-raises
            ::_exit(4);       // unreachable if the handler re-raised
        },
        ::testing::KilledBySignal(SIGTERM), "");

    // The interrupted process must not have stranded its lease for a
    // TTL: other shards can claim the job immediately.
    EXPECT_FALSE(fs::exists(leaseFile));
}

} // namespace
} // namespace asap
