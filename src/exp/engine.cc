#include "exp/engine.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "exp/pool.hh"
#include "serve/scenario.hh"
#include "sim/log.hh"

namespace asap
{

namespace
{

/**
 * Rate-limited progress/ETA reporter for long sweeps. Workers call
 * jobDone() as simulations finish; at most one line per interval
 * reaches stderr (via the locked log path, so lines never interleave
 * with worker warnings). The ETA is an exponential moving average of
 * per-job wall time divided across the worker count — coarse, but
 * self-correcting as the mix of cheap and expensive configs drains.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::size_t total_jobs, std::size_t pre_done,
                  unsigned workers)
        : total(total_jobs), done(pre_done), served(pre_done),
          workers(workers ? workers : 1)
    {
        if (total > 0 && pre_done > 0)
            print(/*force=*/true);
    }

    void
    jobDone(double job_seconds)
    {
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        ema = ema == 0.0 ? job_seconds
                         : 0.3 * job_seconds + 0.7 * ema;
        print(done == total);
    }

  private:
    void
    print(bool force)
    {
        const auto now = std::chrono::steady_clock::now();
        if (!force && lastPrint.time_since_epoch().count() != 0 &&
            std::chrono::duration<double>(now - lastPrint).count() <
                kMinIntervalSeconds) {
            return;
        }
        lastPrint = now;
        const std::size_t remaining = total - done;
        const double eta =
            ema * static_cast<double>(remaining) / workers;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "progress: %zu/%zu jobs (%.0f%%), "
                      "%.0f%% cache-hit, eta %.0fs",
                      done, total,
                      100.0 * static_cast<double>(done) /
                          static_cast<double>(total ? total : 1),
                      100.0 * static_cast<double>(served) /
                          static_cast<double>(done ? done : 1),
                      eta);
        statusLine(buf);
    }

    static constexpr double kMinIntervalSeconds = 0.5;

    std::mutex mu;
    const std::size_t total;
    std::size_t done;
    const std::size_t served; //!< jobs satisfied without simulating
    const unsigned workers;
    double ema = 0.0;
    std::chrono::steady_clock::time_point lastPrint{};
};

} // namespace

bool
SweepResult::hasCrashJobs() const
{
    for (const ExperimentJob &j : jobs) {
        if (j.kind == JobKind::Crash)
            return true;
    }
    return false;
}

bool
SweepResult::hasNonDefaultMedia() const
{
    for (const ExperimentJob &j : jobs) {
        if (j.cfg.mediaProfile != kDefaultMediaProfile ||
            !j.cfg.mediaPerMc.empty())
            return true;
    }
    return false;
}

bool
SweepResult::hasServeJobs() const
{
    for (const ExperimentJob &j : jobs) {
        if (isServeWorkload(j.workload))
            return true;
    }
    return false;
}

bool
SweepResult::hasPermuteJobs() const
{
    for (const ExperimentJob &j : jobs) {
        if (j.kind == JobKind::Permute)
            return true;
    }
    return false;
}

std::vector<std::size_t>
SweepResult::inconsistentJobs() const
{
    std::vector<std::size_t> bad;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].kind != JobKind::Run && !verdicts[i].consistent)
            bad.push_back(i);
    }
    return bad;
}

const RunResult *
SweepResult::find(const std::string &workload, ModelKind model,
                  PersistencyModel pm, unsigned cores) const
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ExperimentJob &j = jobs[i];
        if (j.workload == workload && j.cfg.model == model &&
            j.cfg.persistency == pm && j.cfg.numCores == cores) {
            return &results[i];
        }
    }
    return nullptr;
}

namespace
{

PermuteSpec
permuteSpecOf(const ExperimentJob &job)
{
    PermuteSpec spec;
    spec.bound = job.permuteBound;
    spec.sampleSeed = job.permuteSeed;
    spec.fault = job.permuteFault;
    spec.onlyState = job.permuteState;
    spec.engine = job.permuteEngine;
    spec.threads = job.permuteThreads;
    return spec;
}

/** The payload of Crash or Permute @p job at the crash point @p run
 *  simulated (it must hold a snapshot for a Permute job). */
CachedResult
crashJobResult(const ExperimentJob &job, const CrashedRun &run)
{
    CachedResult e;
    e.kind = job.kind;
    e.run = run.run;
    e.verdict = job.kind == JobKind::Crash
                    ? crashVerdict(run)
                    : permuteVerdict(run, permuteSpecOf(job));
    return e;
}

/** The key of the crash point @p job checks: its own key as a Crash
 *  job with every permute field at its default. Jobs with equal
 *  prefix keys replay the same simulation up to the same crash. */
std::string
prefixKey(const ExperimentJob &job)
{
    ExperimentJob point;
    point.workload = job.workload;
    point.cfg = job.cfg;
    point.params = job.params;
    point.kind = JobKind::Crash;
    point.crashTick = job.crashTick;
    return jobKey(point);
}

} // namespace

CachedResult
executeJob(const ExperimentJob &job)
{
    if (job.kind == JobKind::Run) {
        CachedResult e;
        e.kind = job.kind;
        e.run = runExperiment(job.workload, job.cfg, job.params);
        return e;
    }
    return crashJobResult(
        job, simulateCrash(job.workload, job.cfg, job.params,
                           job.crashTick,
                           /*capture_snapshot=*/job.kind ==
                               JobKind::Permute));
}

namespace
{

/** Barrier for tasks submitted to an external executor: the engine
 *  cannot pool.wait() on a scheduler it does not own, so it counts
 *  its own completions instead. */
class TaskLatch
{
  public:
    explicit TaskLatch(std::size_t count) : remaining(count) {}

    void
    done()
    {
        std::lock_guard<std::mutex> lock(mu);
        if (--remaining == 0)
            cv.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return remaining == 0; });
    }

  private:
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining;
};

/**
 * Runs the jobs of one runJobs call that the cache could not serve,
 * simulating each crash point once.
 *
 * Crash and Permute jobs with one prefix key form a group. The group's
 * first job (its leader) simulates up to the crash and freezes the
 * result in a shared CrashedRun. It finishes its own job, then submits
 * every other job of the group (a follower) as a task of its own that
 * derives its verdict from that CrashedRun. The last follower to
 * finish frees it. Run jobs and single-job groups run executeJob.
 *
 * Jobs are admitted in job order, with at most kLiveGroupsPerWorker x
 * width groups live (admitted and not yet finished). That bounds the
 * CrashedRuns held at once, and a follower queues behind at most that
 * many leaders. No task waits for another: a follower is submitted
 * only once its CrashedRun exists.
 */
class JobScheduler
{
  public:
    JobScheduler(SweepResult &sr, const std::vector<std::string> &keys,
                 const std::vector<std::size_t> &to_run,
                 ResultCache &cache, TaskExecutor &exec,
                 ProgressMeter *meter)
        : sr(sr), keys(keys), cache(cache), exec(exec), meter(meter),
          window(kLiveGroupsPerWorker * std::max(1u, exec.width())),
          latch(to_run.size())
    {
        std::unordered_map<std::string, std::size_t> groupOf;
        for (std::size_t i : to_run) {
            if (sr.jobs[i].kind == JobKind::Run) {
                units.push_back({i});
                continue;
            }
            const auto [it, fresh] =
                groupOf.emplace(prefixKey(sr.jobs[i]), units.size());
            if (fresh)
                units.push_back({i});
            else
                units[it->second].push_back(i);
        }
        followersLeft.resize(units.size());
    }

    // Tasks hold `this`.
    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /** Run every job; returns when all have finished. */
    void
    run()
    {
        admit();
        latch.wait();
    }

  private:
    static constexpr unsigned kLiveGroupsPerWorker = 2;

    using Clock = std::chrono::steady_clock;

    /** Submit units in order until the group window is full. */
    void
    admit()
    {
        std::vector<std::size_t> ready;
        {
            std::lock_guard<std::mutex> lock(mu);
            for (; nextUnit < units.size(); ++nextUnit) {
                if (units[nextUnit].size() > 1) {
                    if (liveGroups == window)
                        break;
                    ++liveGroups;
                }
                ready.push_back(nextUnit);
            }
        }
        for (std::size_t u : ready) {
            if (units[u].size() > 1)
                exec.submit([this, u] { runLeader(u); });
            else
                exec.submit([this, i = units[u][0]] { runSingle(i); });
        }
    }

    void
    runSingle(std::size_t i)
    {
        const Clock::time_point start = Clock::now();
        finish(i, executeJob(sr.jobs[i]), start);
        latch.done();
    }

    void
    runLeader(std::size_t u)
    {
        const Clock::time_point start = Clock::now();
        const std::vector<std::size_t> &group = units[u];
        bool snapshot = false;
        for (std::size_t i : group)
            snapshot |= sr.jobs[i].kind == JobKind::Permute;
        const ExperimentJob &leader = sr.jobs[group.front()];
        const std::shared_ptr<const CrashedRun> crashed =
            std::make_shared<const CrashedRun>(
                simulateCrash(leader.workload, leader.cfg, leader.params,
                              leader.crashTick, snapshot));
        finish(group.front(), crashJobResult(leader, *crashed), start);

        {
            std::lock_guard<std::mutex> lock(mu);
            followersLeft[u] = group.size() - 1;
        }
        for (std::size_t k = 1; k < group.size(); ++k) {
            exec.submit([this, u, i = group[k], crashed]() mutable {
                runFollower(u, i, std::move(crashed));
            });
        }
        latch.done();
    }

    void
    runFollower(std::size_t u, std::size_t i,
                std::shared_ptr<const CrashedRun> crashed)
    {
        const Clock::time_point start = Clock::now();
        CachedResult e = crashJobResult(sr.jobs[i], *crashed);
        crashed.reset(); // the last follower frees the crashed run
        finish(i, std::move(e), start);

        bool retired;
        {
            std::lock_guard<std::mutex> lock(mu);
            retired = --followersLeft[u] == 0;
            if (retired)
                --liveGroups;
        }
        if (retired)
            admit();
        latch.done();
    }

    /** Cache and store job @p i's payload (each task writes only its
     *  own slot, so assembly is deterministic whatever the order). */
    void
    finish(std::size_t i, CachedResult e, Clock::time_point start)
    {
        cache.insert(keys[i], e);
        sr.results[i] = std::move(e.run);
        sr.verdicts[i] = std::move(e.verdict);
        if (meter) {
            meter->jobDone(
                std::chrono::duration<double>(Clock::now() - start)
                    .count());
        }
    }

    SweepResult &sr;
    const std::vector<std::string> &keys;
    ResultCache &cache;
    TaskExecutor &exec;
    ProgressMeter *const meter;
    const std::size_t window;
    TaskLatch latch;

    /** Admission units in job order: a Run job, or the jobs of one
     *  prefix group, leader first. Fixed after construction. */
    std::vector<std::vector<std::size_t>> units;

    std::mutex mu;
    std::size_t nextUnit = 0;   //!< guarded by mu
    std::size_t liveGroups = 0; //!< guarded by mu
    std::vector<std::size_t> followersLeft; //!< guarded by mu
};

} // namespace

SweepResult
runJobs(std::vector<ExperimentJob> jobs, const RunOptions &opt)
{
    const auto t0 = std::chrono::steady_clock::now();

    SweepResult sr;
    sr.jobs = std::move(jobs);
    sr.results.resize(sr.jobs.size());
    sr.verdicts.resize(sr.jobs.size());

    ResultCache &cache = opt.cache ? *opt.cache : processCache();
    const CacheStats before = cache.stats();
    const TraceCacheStats traceBefore = traceCacheStats();

    // Deduplicate: the first job with a given key is its group's
    // leader and the only one that may simulate; duplicates copy the
    // leader's result afterwards.
    std::vector<std::string> keys(sr.jobs.size());
    std::unordered_map<std::string, std::size_t> leaderOf;
    std::vector<std::size_t> leaders;
    for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
        keys[i] = jobKey(sr.jobs[i]);
        if (leaderOf.emplace(keys[i], i).second)
            leaders.push_back(i);
    }

    // Serve leaders from the cache where possible; simulate the rest
    // on the pool. Each worker writes only its own results slot, so
    // assembly is deterministic regardless of completion order.
    std::vector<std::size_t> toRun;
    for (std::size_t i : leaders) {
        CachedResult hit;
        if (cache.lookup(keys[i], hit)) {
            sr.results[i] = std::move(hit.run);
            sr.verdicts[i] = std::move(hit.verdict);
        } else {
            toRun.push_back(i);
        }
    }
    if (!toRun.empty()) {
        // Own pool unless the caller supplied an executor; either way
        // each task writes only its own results slot, so assembly is
        // deterministic regardless of completion order or scheduler.
        std::unique_ptr<ThreadPool> ownPool;
        TaskExecutor *exec = opt.executor;
        if (!exec) {
            ownPool = std::make_unique<ThreadPool>(opt.jobs);
            exec = ownPool.get();
        }
        std::unique_ptr<ProgressMeter> meter;
        if (opt.progress) {
            meter = std::make_unique<ProgressMeter>(
                sr.jobs.size(), sr.jobs.size() - toRun.size(),
                exec->width());
        }
        JobScheduler(sr, keys, toRun, cache, *exec, meter.get()).run();
    }

    for (std::size_t i = 0; i < sr.jobs.size(); ++i) {
        const std::size_t leader = leaderOf[keys[i]];
        if (leader != i) {
            sr.results[i] = sr.results[leader];
            sr.verdicts[i] = sr.verdicts[leader];
        }
    }

    sr.uniqueRuns = toRun.size();
    sr.cacheHits = sr.jobs.size() - sr.uniqueRuns;
    sr.diskHits = cache.stats().diskHits - before.diskHits;
    const TraceCacheStats traceAfter = traceCacheStats();
    sr.traceHits = traceAfter.hits - traceBefore.hits;
    sr.traceMisses = traceAfter.misses - traceBefore.misses;
    sr.traceDiskHits = traceAfter.diskHits - traceBefore.diskHits;
    sr.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return sr;
}

SweepResult
runSweep(const SweepSpec &spec, const RunOptions &opt)
{
    return runJobs(spec.expand(), opt);
}

} // namespace asap
