#include "svc/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "exp/engine.hh"
#include "sim/log.hh"
#include "svc/protocol.hh"
#include "svc/wire.hh"

namespace asap
{

namespace
{

/** Self-pipe write end for the signal handler (one daemon per
 *  process is the supported configuration). */
std::atomic<int> gWakeFd{-1};

void
onTermSignal(int)
{
    const int fd = gWakeFd.load();
    if (fd >= 0) {
        const char byte = 's';
        // Best-effort: a full pipe already means a wake-up is pending.
        [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
    }
}

/** Frame-write timeout: generous enough for a paging client, small
 *  enough that a vanished one frees its connection thread. */
constexpr int kWriteTimeoutMs = 30'000;

/** Idle poll period for connection reads — the upper bound on how
 *  long a connection thread takes to notice shutdown. */
constexpr int kReadPollMs = 500;

} // namespace

/** Streaming state of one admitted sweep. The connection thread is
 *  the only writer on the socket; workers and cancellations push
 *  frames into the outbox and it drains them in arrival order. */
struct Daemon::SweepSession
{
    std::uint64_t id = 0;
    std::string client;
    int priority = 0;
    std::size_t total = 0; //!< unique keys = frames to stream

    std::mutex mu;
    std::condition_variable cv;
    std::deque<Json> outbox;
    std::size_t produced = 0;  //!< frames pushed so far
    std::size_t results = 0;   //!< ... that carried a result
    std::size_t cancelled = 0; //!< ... that carried a cancellation
    std::size_t streamed = 0;  //!< frames actually written out

    void
    push(Json frame, bool is_cancel)
    {
        std::lock_guard<std::mutex> lock(mu);
        outbox.push_back(std::move(frame));
        ++produced;
        if (is_cancel)
            ++cancelled;
        else
            ++results;
        cv.notify_all();
    }
};

Daemon::Daemon(DaemonOptions options)
    : opt(std::move(options)), resultCache(opt.cacheDir)
{
}

Daemon::~Daemon()
{
    requestStop();
    waitStopped();
    if (acceptor.joinable())
        acceptor.join();
    // The self-pipe outlives the accept thread: requestStop() may
    // write to it from any thread until the daemon is destroyed.
    if (wakePipe[0] >= 0) {
        ::close(wakePipe[0]);
        ::close(wakePipe[1]);
    }
}

bool
Daemon::start(std::string *why)
{
    if (opt.socketPath.empty()) {
        if (why)
            *why = "no socket path configured";
        return false;
    }
    listenFd = listenUnix(opt.socketPath, why);
    if (listenFd < 0)
        return false;
    if (::pipe(wakePipe) != 0) {
        if (why)
            *why = std::string("pipe: ") + std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        ::unlink(opt.socketPath.c_str());
        return false;
    }
    ::fcntl(wakePipe[0], F_SETFL, O_NONBLOCK);
    ::fcntl(wakePipe[1], F_SETFL, O_NONBLOCK);

    pool = std::make_unique<ThreadPool>(opt.workers);
    sched = std::make_unique<PriorityScheduler>(*pool);
    if (!opt.cacheDir.empty() && opt.useLeases) {
        LeaseConfig lc;
        lc.dir = opt.cacheDir;
        lc.ttlSeconds = opt.leaseTtlSeconds;
        lc.heartbeatSeconds =
            std::max(1.0, opt.leaseTtlSeconds / 6.0);
        leases = std::make_unique<LeaseManager>(lc);
    }

    if (opt.handleSignals) {
        gWakeFd.store(wakePipe[1]);
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = onTermSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);
    }

    startedAt = std::chrono::steady_clock::now();
    stopping.store(false);
    {
        std::lock_guard<std::mutex> lock(stopMu);
        stopped = false;
    }
    live.store(true);
    acceptor = std::thread([this] { acceptLoop(); });
    return true;
}

void
Daemon::requestStop()
{
    stopping.store(true);
    const int fd = wakePipe[1];
    if (fd >= 0) {
        const char byte = 'q';
        [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
    }
}

void
Daemon::waitStopped()
{
    if (!acceptor.joinable())
        return; // never started
    std::unique_lock<std::mutex> lock(stopMu);
    stopCv.wait(lock, [this] { return stopped; });
}

void
Daemon::acceptLoop()
{
    while (!stopping.load()) {
        struct pollfd pfds[2];
        pfds[0].fd = wakePipe[0];
        pfds[0].events = POLLIN;
        pfds[0].revents = 0;
        pfds[1].fd = listenFd;
        pfds[1].events = POLLIN;
        pfds[1].revents = 0;
        const int rc = ::poll(pfds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (pfds[0].revents != 0 || stopping.load())
            break;
        if (pfds[1].revents == 0)
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        nConnections.fetch_add(1);
        std::lock_guard<std::mutex> lock(connMu);
        connThreads.emplace_back(
            [this, fd] { connectionLoop(fd); });
    }
    shutdownSequence();
}

void
Daemon::connectionLoop(int fd)
{
    std::string payload;
    while (true) {
        const FrameStatus st = readFrame(fd, payload, kReadPollMs);
        if (st == FrameStatus::Timeout) {
            if (stopping.load())
                break;
            continue;
        }
        if (st != FrameStatus::Ok)
            break; // EOF, truncated frame, oversize, or socket error
        if (!handleRequest(fd, payload))
            break;
    }
    ::close(fd);
}

namespace
{

Json
errorResponse(const std::string &message)
{
    Json v = Json::object();
    v.set("ok", Json::boolean(false));
    v.set("error", Json::str(message));
    return v;
}

bool
sendJson(int fd, const Json &v)
{
    return writeFrame(fd, v.dump(), kWriteTimeoutMs) ==
           FrameStatus::Ok;
}

} // namespace

bool
Daemon::handleRequest(int fd, const std::string &payload)
{
    Json req;
    std::string why;
    if (!Json::parse(payload, req, &why) || !req.isObject())
        return sendJson(fd, errorResponse("bad request: " + why));

    const std::string op = req.get("op").asString();
    if (op == "ping") {
        Json resp = Json::object();
        resp.set("ok", Json::boolean(true));
        return sendJson(fd, resp);
    }
    if (op == "hello") {
        Json resp = Json::object();
        resp.set("ok", Json::boolean(true));
        resp.set("server", Json::str("asapd"));
        resp.set("salt", Json::str(cacheCodeSalt()));
        resp.set("width", Json::number(std::uint64_t(pool->size())));
        return sendJson(fd, resp);
    }
    if (op == "submit")
        return handleSubmit(fd, req);
    if (op == "status")
        return sendJson(fd, statusJson());
    if (op == "stats")
        return sendJson(fd, statsJson());
    if (op == "cancel") {
        const std::string sweep = req.get("sweep").asString();
        std::uint64_t id = 0;
        if (sweep.size() > 1 && sweep[0] == 's')
            id = std::strtoull(sweep.c_str() + 1, nullptr, 10);
        if (id == 0) {
            return sendJson(
                fd, errorResponse("bad sweep id '" + sweep + "'"));
        }
        const std::size_t n = sched->cancelTag(id);
        Json resp = Json::object();
        resp.set("ok", Json::boolean(true));
        resp.set("cancelled", Json::number(std::uint64_t(n)));
        return sendJson(fd, resp);
    }
    if (op == "shutdown") {
        Json resp = Json::object();
        resp.set("ok", Json::boolean(true));
        resp.set("draining", Json::boolean(true));
        sendJson(fd, resp);
        requestStop();
        return false;
    }
    return sendJson(fd, errorResponse("unknown op '" + op + "'"));
}

bool
Daemon::handleSubmit(int fd, const Json &req)
{
    std::string client = req.get("client").asString();
    if (client.empty())
        client = "anon";
    const int priority =
        static_cast<int>(req.get("priority").asI64(0));

    const Json &jobsJson = req.get("jobs");
    if (!jobsJson.isArray() || jobsJson.size() == 0) {
        return sendJson(fd,
                        errorResponse("submit without a jobs array"));
    }

    std::vector<ExperimentJob> jobs;
    jobs.reserve(jobsJson.size());
    for (std::size_t i = 0; i < jobsJson.size(); ++i) {
        ExperimentJob job;
        std::string why;
        if (!jobFromJson(jobsJson.at(i), job, &why)) {
            return sendJson(fd, errorResponse(
                                    "job " + std::to_string(i) +
                                    ": " + why));
        }
        jobs.push_back(std::move(job));
    }

    // Deduplicate exactly as runJobs() does: one frame per distinct
    // key, whatever the duplication in the submission.
    std::vector<std::string> keys(jobs.size());
    std::vector<std::size_t> leaders;
    {
        std::unordered_map<std::string, std::size_t> leaderOf;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            keys[i] = jobKey(jobs[i]);
            if (leaderOf.emplace(keys[i], i).second)
                leaders.push_back(i);
        }
    }

    auto session = std::make_shared<SweepSession>();
    session->client = client;
    session->priority = priority;
    session->total = leaders.size();
    {
        std::lock_guard<std::mutex> lock(sessionMu);
        session->id = nextSweepId++;
        sessions.emplace(session->id, session);
    }
    nSweeps.fetch_add(1);
    nJobs.fetch_add(jobs.size());
    nUnique.fetch_add(leaders.size());

    Json ack = Json::object();
    ack.set("ok", Json::boolean(true));
    ack.set("sweep", Json::str("s" + std::to_string(session->id)));
    ack.set("jobs", Json::number(std::uint64_t(jobs.size())));
    ack.set("unique", Json::number(std::uint64_t(leaders.size())));
    if (!sendJson(fd, ack)) {
        std::lock_guard<std::mutex> lock(sessionMu);
        sessions.erase(session->id);
        return false;
    }

    // Admission: cache hits stream immediately (no queue latency for
    // a warm resubmit); misses queue under the client's fair share.
    for (const std::size_t i : leaders) {
        CachedResult hit;
        if (resultCache.lookup(keys[i], hit)) {
            Json frame = Json::object();
            frame.set("key", Json::str(keys[i]));
            frame.set("cached", Json::boolean(true));
            frame.set("entry", Json::str(serializeEntry(hit)));
            session->push(std::move(frame), /*is_cancel=*/false);
            continue;
        }
        SchedTask task;
        task.client = client;
        task.priority = priority;
        task.tag = session->id;
        const ExperimentJob &job = jobs[i];
        const std::string &key = keys[i];
        task.fn = [this, session, job, key] {
            runJobTask(session, job, key);
        };
        task.onCancel = [session, key] {
            Json frame = Json::object();
            frame.set("key", Json::str(key));
            frame.set("cancelled", Json::boolean(true));
            session->push(std::move(frame), /*is_cancel=*/true);
        };
        sched->enqueue(std::move(task));
    }

    // Stream the outbox. Every admitted key produces exactly one
    // frame — a result or a cancellation — so this loop terminates
    // even across daemon shutdown (cancelTag covers the queue, drain
    // covers the in-flight tail).
    bool alive = true;
    std::size_t written = 0;
    while (written < session->total) {
        Json frame;
        {
            std::unique_lock<std::mutex> lock(session->mu);
            if (session->outbox.empty()) {
                session->cv.wait_for(
                    lock, std::chrono::milliseconds(kReadPollMs));
                continue;
            }
            frame = std::move(session->outbox.front());
            session->outbox.pop_front();
        }
        ++written;
        if (alive && !sendJson(fd, frame)) {
            // Client vanished mid-stream: stop writing, drop its
            // queued work, but keep consuming frames so in-flight
            // results land in the cache accounting cleanly.
            alive = false;
            sched->cancelTag(session->id);
        }
        if (alive) {
            std::lock_guard<std::mutex> lock(session->mu);
            session->streamed = written;
        }
    }
    nResultsStreamed.fetch_add(written);

    std::size_t cancelled = 0;
    {
        std::lock_guard<std::mutex> lock(session->mu);
        cancelled = session->cancelled;
    }
    if (alive) {
        Json done = Json::object();
        done.set("done", Json::boolean(true));
        done.set("results",
                 Json::number(std::uint64_t(session->total -
                                            cancelled)));
        done.set("cancelled", Json::number(std::uint64_t(cancelled)));
        alive = sendJson(fd, done);
    }
    {
        std::lock_guard<std::mutex> lock(sessionMu);
        sessions.erase(session->id);
    }
    return alive;
}

void
Daemon::runJobTask(const std::shared_ptr<SweepSession> &session,
                   const ExperimentJob &job, const std::string &key)
{
    CachedResult e;
    // Re-check: a concurrent sweep (or another process sharing the
    // disk tier) may have produced this key since admission.
    bool cached = resultCache.lookup(key, e);
    if (!cached && leases) {
        // Coordinate with other daemons/shards on the same cache
        // directory: one owner simulates, everyone else polls for
        // the result (stale owners are stolen from after the TTL).
        while (!cached) {
            if (leases->tryAcquire(key) ==
                LeaseManager::Acquire::Acquired) {
                if (!resultCache.lookup(key, e)) {
                    e = executeJob(job);
                    resultCache.insert(key, e);
                    nEvents.fetch_add(e.run.eventsExecuted);
                    nHostNs.fetch_add(e.run.hostNs);
                } else {
                    cached = true;
                }
                leases->release(key);
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
            cached = resultCache.lookup(key, e);
        }
    } else if (!cached) {
        e = executeJob(job);
        resultCache.insert(key, e);
        nEvents.fetch_add(e.run.eventsExecuted);
        nHostNs.fetch_add(e.run.hostNs);
    }

    Json frame = Json::object();
    frame.set("key", Json::str(key));
    frame.set("cached", Json::boolean(cached));
    frame.set("entry", Json::str(serializeEntry(e)));
    session->push(std::move(frame), /*is_cancel=*/false);
}

Json
Daemon::statusJson()
{
    Json sweeps = Json::array();
    {
        std::lock_guard<std::mutex> lock(sessionMu);
        for (const auto &kv : sessions) {
            const std::shared_ptr<SweepSession> &s = kv.second;
            Json row = Json::object();
            std::string sweep = "s";
            sweep += std::to_string(s->id);
            row.set("sweep", Json::str(sweep));
            row.set("client", Json::str(s->client));
            row.set("priority",
                    Json::number(std::int64_t(s->priority)));
            std::lock_guard<std::mutex> slock(s->mu);
            row.set("unique", Json::number(std::uint64_t(s->total)));
            row.set("produced",
                    Json::number(std::uint64_t(s->produced)));
            row.set("streamed",
                    Json::number(std::uint64_t(s->streamed)));
            row.set("cancelled",
                    Json::number(std::uint64_t(s->cancelled)));
            sweeps.push(std::move(row));
        }
    }
    Json resp = Json::object();
    resp.set("ok", Json::boolean(true));
    resp.set("sweeps", std::move(sweeps));
    return resp;
}

Json
Daemon::statsJson()
{
    const CacheStats cs = resultCache.stats();
    const SchedStats ss = sched->stats();
    const DaemonStats ds = stats();

    Json cacheJ = Json::object();
    cacheJ.set("memHits", Json::number(cs.memHits));
    cacheJ.set("diskHits", Json::number(cs.diskHits));
    cacheJ.set("misses", Json::number(cs.misses));
    cacheJ.set("auxHits", Json::number(cs.auxHits));
    cacheJ.set("auxMisses", Json::number(cs.auxMisses));
    const std::uint64_t lookups = cs.hits() + cs.misses;
    cacheJ.set("hitRate",
               Json::number(lookups == 0
                                ? 0.0
                                : static_cast<double>(cs.hits()) /
                                      static_cast<double>(lookups)));

    Json schedJ = Json::object();
    schedJ.set("queued", Json::number(std::uint64_t(ss.queued)));
    schedJ.set("inFlight", Json::number(std::uint64_t(ss.inFlight)));
    schedJ.set("completed", Json::number(ss.completed));
    schedJ.set("cancelled", Json::number(ss.cancelled));
    Json perClient = Json::object();
    for (const auto &kv : ss.perClient)
        perClient.set(kv.first, Json::number(kv.second));
    schedJ.set("perClient", std::move(perClient));

    Json daemonJ = Json::object();
    daemonJ.set("connections", Json::number(ds.connections));
    daemonJ.set("sweeps", Json::number(ds.sweepsAdmitted));
    daemonJ.set("jobs", Json::number(ds.jobsAdmitted));
    daemonJ.set("unique", Json::number(ds.uniqueAdmitted));
    daemonJ.set("resultsStreamed",
                Json::number(ds.resultsStreamed));
    daemonJ.set("eventsExecuted", Json::number(ds.eventsExecuted));
    daemonJ.set("hostNs", Json::number(ds.hostNs));
    daemonJ.set("eventsPerSec", Json::number(ds.eventsPerSecond()));
    daemonJ.set("uptimeSeconds", Json::number(ds.uptimeSeconds));
    daemonJ.set("workers", Json::number(std::uint64_t(pool->size())));

    Json resp = Json::object();
    resp.set("ok", Json::boolean(true));
    resp.set("cache", std::move(cacheJ));
    resp.set("scheduler", std::move(schedJ));
    resp.set("daemon", std::move(daemonJ));
    return resp;
}

SchedStats
Daemon::schedulerStats() const
{
    return sched ? sched->stats() : SchedStats{};
}

DaemonStats
Daemon::stats() const
{
    DaemonStats ds;
    ds.connections = nConnections.load();
    ds.sweepsAdmitted = nSweeps.load();
    ds.jobsAdmitted = nJobs.load();
    ds.uniqueAdmitted = nUnique.load();
    ds.resultsStreamed = nResultsStreamed.load();
    ds.eventsExecuted = nEvents.load();
    ds.hostNs = nHostNs.load();
    ds.uptimeSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - startedAt)
            .count();
    return ds;
}

void
Daemon::shutdownSequence()
{
    stopping.store(true);
    if (opt.handleSignals)
        gWakeFd.store(-1);
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
        ::unlink(opt.socketPath.c_str());
    }

    // Queued jobs become cancellation frames to their waiting
    // clients; in-flight simulations run to completion (and land in
    // the cache) before the workers are released.
    std::vector<std::uint64_t> ids;
    {
        std::lock_guard<std::mutex> lock(sessionMu);
        for (const auto &kv : sessions)
            ids.push_back(kv.first);
    }
    for (const std::uint64_t id : ids)
        sched->cancelTag(id);
    if (sched)
        sched->drain();

    // Connection threads notice `stopping` within one poll period
    // once their streams complete.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMu);
        threads.swap(connThreads);
    }
    for (std::thread &t : threads) {
        if (t.joinable())
            t.join();
    }

    // LeaseManager's destructor releases anything still held.
    leases.reset();
    sched.reset();
    pool.reset();

    live.store(false);
    {
        std::lock_guard<std::mutex> lock(stopMu);
        stopped = true;
    }
    stopCv.notify_all();
}

} // namespace asap
