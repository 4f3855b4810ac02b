/**
 * @file
 * Repository benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *
 * Each workload is a fixed job list made from the seed. The untraced
 * run (--trace 0) repeats the list through exp::runJobs in timed
 * passes for S seconds and reports end-to-end metrics as medians over
 * those passes. The traced run (--trace 1) alternates untraced passes
 * with passes in which the benchmark drives every job through the
 * layers itself (trace -> System -> load -> run/crash -> checker ->
 * teardown), recording a span around each call, and reports per-layer
 * metrics and writes its spans to spans/<workload>-seed<N>.json next
 * to the executable. Both check every job: a job fails when its run
 * did not finish, when a fault-free crash point is inconsistent, or
 * when its deterministic fingerprint differs from its first execution
 * (in the traced run, from the untraced execution). Each failed job
 * is named once on stderr with its reason. The last stdout
 * line is one JSON object {correct, attempted, failed, metrics}; the
 * exit code is non-zero when any check failed.
 *
 * runJobs reports a run that did not finish only as a warning on
 * stderr, so each untraced pass is bracketed there by the kPassBegin
 * and kPassEnd lines: the warnings between them belong to counted job
 * executions (run.py adds them to the failures).
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/cache.hh"
#include "exp/crash_campaign.hh"
#include "exp/engine.hh"
#include "exp/sweep.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "metrics.hh"
#include "recovery/checker.hh"
#include "serve/op_stream.hh"
#include "serve/scenario.hh"
#include "sim/log.hh"
#include "sim/pool.hh"
#include "workloads/registry.hh"

using namespace asap;
using perfbench::Fingerprint;
using perfbench::PassTally;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Workload definitions. Only the seed varies between runs.

constexpr unsigned kCores = 4;
constexpr unsigned kFigOps = 500;   //!< ops/thread, Figure 8/3 suite
constexpr unsigned kServeOps = 5000; //!< requests/thread, serve-stream
constexpr unsigned kCrashOps = 200;  //!< ops/thread, crash-check
constexpr unsigned kCrashTicks = 4;  //!< stride crash points per config
/** States per drop-undo point. Lost undo records fail most states, and
 *  each failing state takes the permuter's full check (~7 ms on a
 *  2 GHz Xeon), so an unbounded point can take half a minute. */
constexpr std::uint64_t kFaultBound = 128;
constexpr double kFig08Paper = 2.29; //!< gmean ASAP_RP speedup
constexpr double kFig03Paper = 26.0; //!< mean HOPS_RP PB-blocked %

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 5;

/** stderr lines around each counted runJobs pass (see the file
 *  comment); run.py matches them verbatim. */
constexpr const char *kPassBegin = "perfbench: timed pass begin";
constexpr const char *kPassEnd = "perfbench: timed pass end";

unsigned
poolWidth()
{
    return std::min(4u, ThreadPool::defaultThreads());
}

/** One workload's job list and how its passes run it. */
struct Bench
{
    std::string name;
    std::vector<ExperimentJob> jobs;
    std::vector<bool> faulted; //!< drop-undo permute jobs
    /** fig-sweep: every pass starts with no memoised trace. */
    bool coldTraces = false;
    /** fig-sweep column indices for the fidelity metrics. */
    std::vector<std::size_t> baseIdx, asapRpIdx, hopsRpIdx;
};

WorkloadParams
paramsFor(unsigned ops, std::uint64_t seed)
{
    WorkloadParams p;
    p.opsPerThread = ops;
    p.seed = seed;
    return p;
}

SimConfig
configFor(ModelKind model, PersistencyModel pm)
{
    SimConfig cfg;
    cfg.model = model;
    cfg.persistency = pm;
    cfg.numCores = kCores;
    return cfg;
}

/** The Figure 8 suite (which contains Figure 3's HOPS_RP column):
 *  Table III workloads x {baseline, HOPS_EP, HOPS_RP, ASAP_EP,
 *  ASAP_RP, eADR}, built as bench/fig08_performance builds it. */
Bench
figSweep(std::uint64_t seed)
{
    Bench b;
    b.name = "fig-sweep";
    b.coldTraces = true;
    const WorkloadParams p = paramsFor(kFigOps, seed);
    JobSet set;
    for (const WorkloadInfo &w : allWorkloads()) {
        b.baseIdx.push_back(set.add(
            w.name, configFor(ModelKind::Baseline,
                              PersistencyModel::Release), p));
        set.add(w.name, configFor(ModelKind::Hops,
                                  PersistencyModel::Epoch), p);
        b.hopsRpIdx.push_back(set.add(
            w.name, configFor(ModelKind::Hops, PersistencyModel::Release),
            p));
        set.add(w.name, configFor(ModelKind::Asap,
                                  PersistencyModel::Epoch), p);
        b.asapRpIdx.push_back(set.add(
            w.name, configFor(ModelKind::Asap, PersistencyModel::Release),
            p));
        set.add(w.name, configFor(ModelKind::Eadr,
                                  PersistencyModel::Release), p);
    }
    b.jobs = set.jobs();
    b.faulted.assign(b.jobs.size(), false);
    return b;
}

/** Long request streams, run like the other workloads on
 *  min(4, nproc) workers. One worker at a time left wall_s exposed to
 *  a single vCPU's speed, which on a shared 4-CPU VM drifts by 20%
 *  over tens of seconds: the spread of wall_s over runs was 0.18,
 *  against 0.04 on four workers. */
Bench
serveStream(std::uint64_t seed)
{
    Bench b;
    b.name = "serve-stream";
    const WorkloadParams p = paramsFor(kServeOps, seed);
    JobSet set;
    for (const char *sc : {"serve:kv-zipf", "serve:tenant-mix"}) {
        for (ModelKind m : {ModelKind::Baseline, ModelKind::Hops,
                            ModelKind::Asap, ModelKind::Eadr})
            set.add(sc, configFor(m, PersistencyModel::Release), p);
    }
    b.jobs = set.jobs();
    b.faulted.assign(b.jobs.size(), false);
    return b;
}

/** Crash points from the campaign's own probe phase and stride tick
 *  selection; each point is a Crash job and a Permute job on the same
 *  tick, and asap_rp points add a drop-undo Permute job. */
Bench
crashCheck(std::uint64_t seed)
{
    Bench b;
    b.name = "crash-check";
    CampaignSpec spec;
    for (const WorkloadInfo &w : allWorkloads())
        spec.workloads.push_back(w.name);
    spec.models = {{ModelKind::Asap, PersistencyModel::Epoch},
                   {ModelKind::Asap, PersistencyModel::Release},
                   {ModelKind::Hops, PersistencyModel::Epoch},
                   {ModelKind::Hops, PersistencyModel::Release}};
    spec.coreCounts = {kCores};
    spec.params = paramsFor(kCrashOps, seed);
    spec.strategy = TickStrategy::Stride;
    spec.ticksPerConfig = kCrashTicks;

    ResultCache probeCache;
    RunOptions opt;
    opt.jobs = poolWidth();
    opt.cache = &probeCache;
    const SweepResult probes = runJobs(campaignProbeJobs(spec), opt);
    const CampaignExpansion ex = expandCampaign(spec, probes);

    for (const ExperimentJob &crash : ex.crashJobs) {
        ExperimentJob perm = crash;
        perm.kind = JobKind::Permute;
        b.jobs.push_back(crash);
        b.faulted.push_back(false);
        b.jobs.push_back(perm);
        b.faulted.push_back(false);
        if (crash.cfg.model == ModelKind::Asap &&
            crash.cfg.persistency == PersistencyModel::Release) {
            perm.permuteFault = "drop-undo";
            perm.permuteBound = kFaultBound;
            b.jobs.push_back(perm);
            b.faulted.push_back(true);
        }
    }
    return b;
}

/** Build the job list and do the per-process one-time work that
 *  precedes the first timed pass. */
Bench
setUp(const std::string &workload, std::uint64_t seed)
{
    clearTraceCache();
    clearCheckerIndexCache();
    if (workload == "crash-check")
        return crashCheck(seed); // its probes build the traces
    // Warm up with one job per worker: a single job would time one
    // vCPU, whose speed drifts independently of the others.
    Bench b = workload == "fig-sweep" ? figSweep(seed) : serveStream(seed);
    ResultCache warmCache;
    RunOptions opt;
    opt.jobs = poolWidth();
    opt.cache = &warmCache;
    runJobs({b.jobs.begin(), b.jobs.begin() + poolWidth()}, opt);
    return b;
}

// ---------------------------------------------------------------------
// Checks.

/** Every simulated RunResult field; the labels (workload, model,
 *  media) come from the job and host-side telemetry is left out. */
void
addRun(Fingerprint &f, const RunResult &r)
{
    f.add(r.runTicks).add(r.pmWrites).add(r.pmReads)
        .add(r.cyclesBlocked).add(r.cyclesStalled).add(r.dfenceStalled)
        .add(r.sfenceStalled).add(r.entriesInserted).add(r.epochs)
        .add(r.crossDeps).add(r.totSpecWrites).add(r.totalUndo)
        .add(r.totalDelay).add(r.nacks).add(r.rtMaxOccupancy)
        .add(std::bit_cast<std::uint64_t>(r.pbOccMean)).add(r.pbOccP99)
        .add(r.wpqCoalesced).add(r.suppressedWrites).add(r.xpHits)
        .add(r.xpMisses).add(r.mediaBytesWritten)
        .add(r.mediaQueueDelayTicks).add(r.mediaBankBusyTicks)
        .add(r.persistSamples).add(r.persistP50).add(r.persistP99)
        .add(r.persistP999).add(r.persistMax).add(r.serveRequests)
        .add(r.eventsExecuted);
}

/** Digest of the deterministic fields of one job's result: every
 *  simulated RunResult field and, for crash and permute jobs, every
 *  CrashVerdict field but the host-timed permuteNs. */
std::uint64_t
fingerprint(const ExperimentJob &job, const RunResult &r,
            const CrashVerdict &v)
{
    Fingerprint f;
    addRun(f, r);
    if (job.kind != JobKind::Run) {
        f.add(v.consistent).add(v.message).add(v.crashTick)
            .add(v.actualTick).add(v.storesLogged).add(v.linesSurvived)
            .add(v.undoReplayed).add(v.adrDrainWrites)
            .add(v.committedUpTo.size());
        for (std::uint64_t e : v.committedUpTo)
            f.add(e);
    }
    if (job.kind == JobKind::Permute) {
        f.add(v.statesChecked).add(v.statesReachable)
            .add(v.distinctStates).add(v.permuteAtoms).add(v.truncated)
            .add(v.inconsistentStates).add(v.firstBadState);
    }
    return f.value();
}

/** A job's own check, independent of other executions. */
bool
jobOk(const Bench &b, std::size_t i, const RunResult &r,
      const CrashVerdict &v)
{
    const ExperimentJob &job = b.jobs[i];
    if (job.kind == JobKind::Run) {
        if (r.runTicks == 0 || r.eventsExecuted == 0)
            return false;
        if (isServeWorkload(job.workload) &&
            r.serveRequests !=
                std::uint64_t(job.params.opsPerThread) * kCores)
            return false;
        return true;
    }
    return b.faulted[i] || v.consistent;
}

/** Checks over a whole pass. Returns a problem description, or "". */
std::string
passProblem(const Bench &b, const std::vector<CrashVerdict> &verdicts)
{
    std::uint64_t faultedJobs = 0, badStates = 0;
    for (std::size_t i = 0; i < b.jobs.size(); ++i) {
        if (b.faulted[i]) {
            ++faultedJobs;
            badStates += verdicts[i].inconsistentStates;
        }
    }
    if (faultedJobs > 0 && badStates == 0)
        return "drop-undo jobs produced no inconsistent state: the "
               "checker did not see the injected fault";
    return "";
}

/** Why job @p i failed, given its own check and the fingerprint
 *  comparison with its first execution. */
std::string
failureReason(const ExperimentJob &job, bool own, const CrashVerdict &v)
{
    if (own)
        return "result differs from its first untraced execution";
    if (job.kind == JobKind::Run)
        return "run did not complete its work";
    return "inconsistent at a fault-free point: " + v.message;
}

/** Writes one stderr line per failed job, the first time it fails, so
 *  a failed run names what to reproduce. Safe from worker threads. */
class FailureLog
{
  public:
    explicit FailureLog(std::size_t jobs) : reported_(jobs, false) {}

    void
    report(const ExperimentJob &job, std::size_t i, const std::string &why)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (reported_[i])
            return;
        reported_[i] = true;
        std::fprintf(stderr,
                     "perfbench: job failed: %s %s/%s %s tick %llu "
                     "ops %u seed %llu%s%s: %s\n",
                     job.workload.c_str(),
                     toString(job.cfg.model).c_str(),
                     toString(job.cfg.persistency).c_str(),
                     job.kind == JobKind::Run     ? "run"
                     : job.kind == JobKind::Crash ? "crash"
                                                  : "permute",
                     (unsigned long long)job.crashTick,
                     job.params.opsPerThread,
                     (unsigned long long)job.params.seed,
                     job.permuteFault.empty() ? "" : " fault ",
                     job.permuteFault.c_str(), why.c_str());
    }

  private:
    std::mutex mu_;
    std::vector<bool> reported_;
};

// ---------------------------------------------------------------------
// Fidelity against the paper (fig-sweep results only).

struct Fidelity
{
    double fig08Gmean = 0.0; //!< gmean ASAP_RP speedup over baseline
    double fig03Mean = 0.0;  //!< mean HOPS_RP PB-blocked %
    double fig08Err() const
    {
        return std::abs(fig08Gmean - kFig08Paper) / kFig08Paper;
    }
    double fig03Err() const
    {
        return std::abs(fig03Mean - kFig03Paper) / kFig03Paper;
    }
};

/** Same arithmetic as bench/fig08_performance (gmean) and
 *  bench/fig03_pb_stalls (amean of blocked %). */
Fidelity
fidelity(const Bench &b, const std::vector<RunResult> &rs)
{
    Fidelity f;
    double logSum = 0.0, pctSum = 0.0;
    for (std::size_t w = 0; w < b.baseIdx.size(); ++w) {
        const RunResult &base = rs[b.baseIdx[w]];
        const RunResult &asap = rs[b.asapRpIdx[w]];
        const RunResult &hops = rs[b.hopsRpIdx[w]];
        logSum += std::log(double(base.runTicks) / double(asap.runTicks));
        pctSum += 100.0 * double(hops.cyclesBlocked) /
                  double(hops.totalCoreCycles());
    }
    const double n = double(b.baseIdx.size());
    f.fig08Gmean = std::exp(logSum / n);
    f.fig03Mean = pctSum / n;
    return f;
}

// ---------------------------------------------------------------------
// Untraced passes.

/** runJobs executor that times every job it runs. */
class TimedPool : public TaskExecutor
{
  public:
    explicit TimedPool(unsigned workers) : pool(workers) {}

    void
    submit(std::function<void()> task) override
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            ++pending;
        }
        pool.submit([this, task = std::move(task)] {
            const auto t0 = Clock::now();
            task();
            const double s = since(t0);
            std::lock_guard<std::mutex> lock(mu);
            samples.push_back(s);
            if (--pending == 0)
                recorded.notify_all();
        });
    }

    unsigned width() const override { return pool.width(); }

    /** Job seconds recorded since the last call. runJobs returns once
     *  its last task() has signalled, which can be before that task's
     *  time is recorded here, so wait for every submitted task. */
    std::vector<double>
    take()
    {
        std::unique_lock<std::mutex> lock(mu);
        recorded.wait(lock, [this] { return pending == 0; });
        return std::exchange(samples, {});
    }

  private:
    std::mutex mu;
    std::condition_variable recorded;
    std::size_t pending = 0;     //!< guarded by mu
    std::vector<double> samples; //!< guarded by mu
    ThreadPool pool; //!< last: joins its workers before samples dies
};

struct Rusage
{
    double userS = 0, sysS = 0, minorFaults = 0, maxRssMb = 0;
};

Rusage
rusageNow()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    Rusage r;
    r.userS = double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec);
    r.sysS = double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
    r.minorFaults = double(ru.ru_minflt);
    r.maxRssMb = double(ru.ru_maxrss) / 1024.0;
    return r;
}

/** What one untraced pass measured. */
struct PassStats
{
    double wall = 0.0;
    std::vector<double> jobSeconds;
    double busyFrac = 0.0;
    Rusage usage; //!< deltas over the pass
    std::uint64_t traceHits = 0, traceMisses = 0, cacheHits = 0;
};

class Runner
{
  public:
    explicit Runner(Bench bench)
        : b(std::move(bench)), tally(b.jobs.size()), pool(poolWidth()),
          failures(b.jobs.size())
    {
    }

    /** One cold pass of the job list through runJobs. */
    PassStats
    untracedPass()
    {
        if (b.coldTraces)
            clearTraceCache();
        clearCheckerIndexCache();
        ResultCache cache;
        RunOptions opt;
        opt.cache = &cache;
        opt.executor = &pool;
        statusLine(kPassBegin);
        const Rusage u0 = rusageNow();
        const auto t0 = Clock::now();
        SweepResult sr = runJobs(b.jobs, opt);
        PassStats ps;
        ps.wall = since(t0);
        const Rusage u1 = rusageNow();
        statusLine(kPassEnd);
        ps.usage.userS = u1.userS - u0.userS;
        ps.usage.sysS = u1.sysS - u0.sysS;
        ps.usage.minorFaults = u1.minorFaults - u0.minorFaults;
        ps.jobSeconds = pool.take();
        double busy = 0.0;
        for (double s : ps.jobSeconds)
            busy += s;
        ps.busyFrac = busy / (ps.wall * double(pool.width()));
        ps.traceHits = sr.traceHits;
        ps.traceMisses = sr.traceMisses;
        ps.cacheHits = sr.cacheHits;

        for (std::size_t i = 0; i < b.jobs.size(); ++i) {
            const bool own = jobOk(b, i, sr.results[i], sr.verdicts[i]);
            if (!tally.record(i,
                              fingerprint(b.jobs[i], sr.results[i],
                                          sr.verdicts[i]),
                              own)) {
                failures.report(b.jobs[i], i,
                                failureReason(b.jobs[i], own,
                                              sr.verdicts[i]));
            }
        }
        const std::string problem = passProblem(b, sr.verdicts);
        if (!problem.empty())
            problems.push_back(problem);
        if (firstResults.empty())
            firstResults = std::move(sr.results);
        return ps;
    }

    Bench b;
    PassTally tally;
    TimedPool pool;
    FailureLog failures;
    std::vector<std::string> problems;
    std::vector<RunResult> firstResults; //!< pass-1 results
};

// ---------------------------------------------------------------------
// Traced passes: spans recorded around each layer call.

struct Span
{
    const char *name;
    std::uint32_t job;
    std::int32_t parent; //!< index of the enclosing span, -1 = root
    double start, end;   //!< seconds since the run started
};

/** One worker's spans; only that worker appends to it. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    std::size_t
    open(const char *name, std::uint32_t job)
    {
        const double now = since(epoch_);
        spans.push_back({name, job,
                         stack_.empty() ? -1 : std::int32_t(stack_.back()),
                         now, now});
        stack_.push_back(spans.size() - 1);
        return spans.size() - 1;
    }

    void
    close(std::size_t idx)
    {
        spans[idx].end = since(epoch_);
        stack_.pop_back();
    }

    std::vector<Span> spans;

  private:
    Clock::time_point epoch_;
    std::vector<std::size_t> stack_;
};

class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint32_t job)
        : log_(log), idx_(log.open(name, job))
    {
    }
    ~ScopedSpan() { log_.close(idx_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    std::size_t idx_;
};

/** Per-workload traces shared by a traced pass's workers: the first
 *  worker to need one builds it while the others wait on that entry,
 *  as the engine's own memo does. */
class TraceMemo
{
  public:
    const TraceSet &
    get(const ExperimentJob &job, SpanLog &log, std::uint32_t id)
    {
        std::shared_ptr<Entry> e;
        {
            std::lock_guard<std::mutex> lock(mu);
            auto &slot = map[job.workload];
            if (!slot)
                slot = std::make_shared<Entry>();
            e = slot;
        }
        std::lock_guard<std::mutex> lock(e->mu);
        if (!e->ready) {
            ScopedSpan s(log, "workloads.build_trace", id);
            e->trace = buildTrace(job.workload, job.cfg.numCores,
                                  job.params);
            e->ready = true;
        }
        return e->trace;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu);
        map.clear();
    }

    /** Ops across every memoised trace. */
    double
    ops()
    {
        std::lock_guard<std::mutex> lock(mu);
        double n = 0;
        for (const auto &[name, e] : map) {
            (void)name;
            for (const auto &t : e->trace.threads)
                n += double(t.size());
        }
        return n;
    }

  private:
    struct Entry
    {
        std::mutex mu;
        bool ready = false;
        TraceSet trace;
    };
    std::mutex mu;
    std::map<std::string, std::shared_ptr<Entry>> map; //!< guarded by mu
};

/** Simulated statistics summed over a traced pass's jobs. */
const std::pair<const char *, const char *> kStatSums[] = {
    {"cpu.ops_retired", "core.opsRetired"},
    {"cpu.dfence_stall_cycles", "core.dfenceStalled"},
    {"cpu.sfence_stall_cycles", "core.sfenceStalled"},
    {"coherence.llc_hits", "cache.llcHits"},
    {"coherence.pm_fills", "cache.pmFills"},
    {"coherence.conflict_transfers", "cache.conflictTransfers"},
    {"persist.pb_stall_cycles", "pb.cyclesStalled"},
    {"persist.epochs", "et.epochsOpened"},
    {"persist.cross_deps", "et.interTEpochConflict"},
    {"persist.spec_writes", "pb.totSpecWrites"},
    {"core.rt_undo", "rt.totalUndo"},
    {"core.rt_delay", "rt.totalDelay"},
    {"core.rt_nacks", "rt.nacks"},
    {"core.cdr_messages", "asap.cdrMessages"},
    {"models.hops_polls", "hops.polls"},
    {"models.baseline_clwbs", "baseline.clwbs"},
    {"mem.pm_writes", "mc.pmWrites"},
    {"mem.pm_reads", "mc.pmReads"},
    {"mem.wpq_coalesced", "mc.wpqCoalesced"},
    {"media.bytes_written", "mc.bytesWritten"},
    {"media.queue_delay_ticks", "mc.bwQueueDelayTicks"},
    {"media.bank_busy_ticks", "mc.bankBusyTicks"},
};

/** One worker's simulated counters for a traced pass. Every field is
 *  determined by the job list alone (sums are of integer counts, so
 *  exact in any order), so two passes must compare equal. */
struct SimCounts
{
    std::map<std::string, double> sums;
    double events = 0, runTicks = 0, coreCycles = 0, blocked = 0;
    double rtMaxOcc = 0;
    /** (job, mean PB occupancy), sorted by job once the workers'
     *  counts are merged, so it does not depend on which worker ran
     *  which job. */
    std::vector<std::pair<std::size_t, double>> occupancy;
    double xpHits = 0, xpMisses = 0;
    double serveRequests = 0, persistP99Max = 0;
    double storesLogged = 0;
    double statesChecked = 0, faultBadStates = 0;

    bool operator==(const SimCounts &) const = default;

    void
    addSystem(std::size_t job, System &sys)
    {
        StatSet &s = sys.stats();
        for (const auto &[metric, stat] : kStatSums)
            sums[metric] += double(s.get(stat));
        events += double(sys.eventQueue().executed());
        runTicks += double(sys.runTicks());
        coreCycles += double(sys.runTicks()) * kCores;
        blocked += double(s.get("pb.cyclesBlocked"));
        if (s.hasDist("pb.occupancy")) {
            occupancy.emplace_back(job, s.dist("pb.occupancy").mean());
        }
        rtMaxOcc = std::max(rtMaxOcc, double(s.get("rt.maxOccupancy")));
        xpHits += double(s.get("mc.xpHits"));
        xpMisses += double(s.get("mc.xpMisses"));
    }

    void
    merge(const SimCounts &o)
    {
        for (const auto &[k, v] : o.sums)
            sums[k] += v;
        events += o.events;
        runTicks += o.runTicks;
        coreCycles += o.coreCycles;
        blocked += o.blocked;
        occupancy.insert(occupancy.end(), o.occupancy.begin(),
                         o.occupancy.end());
        rtMaxOcc = std::max(rtMaxOcc, o.rtMaxOcc);
        xpHits += o.xpHits;
        xpMisses += o.xpMisses;
        serveRequests += o.serveRequests;
        persistP99Max = std::max(persistP99Max, o.persistP99Max);
        storesLogged += o.storesLogged;
        statesChecked += o.statesChecked;
        faultBadStates += o.faultBadStates;
    }
};

/** The RunResult fields the fingerprint covers, read from a System
 *  the benchmark drove itself with the same stats runExperiment reads. */
RunResult
resultOf(System &sys)
{
    StatSet &s = sys.stats();
    RunResult r;
    r.runTicks = sys.runTicks();
    r.pmWrites = s.get("mc.pmWrites");
    r.pmReads = s.get("mc.pmReads");
    r.cyclesBlocked = s.get("pb.cyclesBlocked");
    r.cyclesStalled = s.get("pb.cyclesStalled");
    r.dfenceStalled = s.get("core.dfenceStalled");
    r.sfenceStalled = s.get("core.sfenceStalled");
    r.entriesInserted = s.get("pb.entriesInserted");
    r.epochs = s.get("et.epochsOpened");
    r.crossDeps = s.get("et.interTEpochConflict");
    r.totSpecWrites = s.get("pb.totSpecWrites");
    r.totalUndo = s.get("rt.totalUndo");
    r.totalDelay = s.get("rt.totalDelay");
    r.nacks = s.get("rt.nacks");
    r.rtMaxOccupancy = s.get("rt.maxOccupancy");
    r.wpqCoalesced = s.get("mc.wpqCoalesced");
    r.suppressedWrites = s.get("mc.suppressedWrites");
    r.xpHits = s.get("mc.xpHits");
    r.xpMisses = s.get("mc.xpMisses");
    r.mediaBytesWritten = s.get("mc.bytesWritten");
    r.mediaQueueDelayTicks = s.get("mc.bwQueueDelayTicks");
    r.mediaBankBusyTicks = s.get("mc.bankBusyTicks");
    if (s.hasDist("pb.occupancy")) {
        r.pbOccMean = s.dist("pb.occupancy").mean();
        r.pbOccP99 = s.dist("pb.occupancy").percentile(99.0);
    }
    const auto &hists = s.allLogHists();
    const auto it = hists.find("core.persistLatency");
    if (it != hists.end()) {
        const LogHistogram &h = it->second;
        r.persistSamples = h.count();
        r.persistP50 = h.percentile(50.0);
        r.persistP99 = h.percentile(99.0);
        r.persistP999 = h.percentile(99.9);
        r.persistMax = h.max();
    }
    r.eventsExecuted = s.get("sim.eventsExecuted");
    return r;
}

/** What one traced pass measured. */
struct TracedPass
{
    double wall = 0.0;
    std::vector<Span> spans; //!< all workers' spans, parents global
    std::vector<unsigned> spanWorker;
    SimCounts counts;
    double permuteS = 0.0; //!< CrashVerdict::permuteNs summed
    std::uint64_t indexBuilds = 0, indexHits = 0;
    std::uint64_t mismatches = 0; //!< jobs whose result differed
};

/** What one worker of a traced pass records; only it writes here. */
struct TracedWorker
{
    explicit TracedWorker(Clock::time_point epoch) : log(epoch) {}

    SpanLog log;
    SimCounts counts;
    double permuteNs = 0;
    std::uint64_t bad = 0; //!< jobs that failed or differed
};

class TracedDriver
{
  public:
    TracedDriver(Runner &runner, Clock::time_point epoch)
        : r(runner), epoch_(epoch)
    {
    }

    /** Drive every job through the layers on the workload's workers,
     *  comparing each result with the untraced reference. */
    TracedPass
    pass()
    {
        if (r.b.coldTraces)
            memo.clear();
        clearCheckerIndexCache();
        const CheckerIndexStats idx0 = checkerIndexStats();
        std::vector<TracedWorker> state(workers_, TracedWorker(epoch_));
        std::atomic<std::size_t> next{0};
        const auto t0 = Clock::now();
        std::vector<std::thread> workers;
        for (unsigned w = 0; w < workers_; ++w) {
            workers.emplace_back([&, w] {
                for (std::size_t i = next++; i < r.b.jobs.size();
                     i = next++) {
                    if (!runJob(i, state[w]))
                        ++state[w].bad;
                }
            });
        }
        for (std::thread &t : workers)
            t.join();
        TracedPass tp;
        tp.wall = since(t0);
        const CheckerIndexStats idx1 = checkerIndexStats();
        tp.indexBuilds = idx1.builds - idx0.builds;
        tp.indexHits = idx1.hits - idx0.hits;
        for (unsigned w = 0; w < workers_; ++w) {
            tp.counts.merge(state[w].counts);
            tp.permuteS += 1e-9 * state[w].permuteNs;
            tp.mismatches += state[w].bad;
            const std::int32_t offset = std::int32_t(tp.spans.size());
            for (Span s : state[w].log.spans) {
                if (s.parent >= 0)
                    s.parent += offset;
                tp.spans.push_back(s);
                tp.spanWorker.push_back(w);
            }
        }
        std::sort(tp.counts.occupancy.begin(), tp.counts.occupancy.end());
        return tp;
    }

    /** Build every trace the job list needs (crash-check keeps its
     *  traces across passes, as its untraced passes do). Seconds. */
    double
    prefill()
    {
        SpanLog log(epoch_);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < r.b.jobs.size(); ++i)
            memo.get(r.b.jobs[i], log, std::uint32_t(i));
        return since(t0);
    }

    TraceMemo memo;

  private:
    /** Run job @p i; false when it fails its check or differs from
     *  its untraced reference. */
    bool
    runJob(std::size_t i, TracedWorker &w)
    {
        SpanLog &log = w.log;
        SimCounts &counts = w.counts;
        const ExperimentJob &job = r.b.jobs[i];
        const std::uint32_t id = std::uint32_t(i);
        ScopedSpan jobSpan(log, "job", id);
        RunResult res;
        CrashVerdict v;
        bool finished = true;

        if (job.kind == JobKind::Permute) {
            PermuteSpec spec;
            spec.bound = job.permuteBound;
            spec.sampleSeed = job.permuteSeed;
            spec.fault = job.permuteFault;
            CrashRunResult cr;
            {
                ScopedSpan s(log, "harness.permute", id);
                cr = runPermuteExperiment(job.workload, job.cfg,
                                          job.params, job.crashTick,
                                          spec);
            }
            res = cr.run;
            v = cr.verdict;
            w.permuteNs += double(v.permuteNs);
            counts.statesChecked += double(v.statesChecked);
            if (r.b.faulted[i])
                counts.faultBadStates += double(v.inconsistentStates);
        } else {
            const bool crash = job.kind == JobKind::Crash;
            const bool serve = isServeWorkload(job.workload);
            const TraceSet *trace =
                serve ? nullptr : &memo.get(job, log, id);
            std::unique_ptr<System> sys;
            std::unique_ptr<ServeStream> stream;
            {
                ScopedSpan s(log, "harness.build", id);
                sys = std::make_unique<System>(job.cfg, crash);
                if (serve) {
                    stream = std::make_unique<ServeStream>(
                        findServeScenario(job.workload),
                        job.cfg.numCores, job.params);
                    sys->loadStream(*stream);
                } else {
                    sys->loadTrace(*trace);
                }
            }
            if (crash) {
                ScopedSpan s(log, "harness.crash", id);
                sys->crashAt(job.crashTick);
            } else {
                ScopedSpan s(log, "harness.run", id);
                finished = sys->run();
            }
            res = resultOf(*sys);
            if (stream) {
                res.serveRequests = stream->requestsGenerated();
                counts.serveRequests += double(res.serveRequests);
                counts.persistP99Max = std::max(
                    counts.persistP99Max, double(res.persistP99));
            }
            counts.addSystem(i, *sys);
            if (crash) {
                v.crashTick = job.crashTick;
                v.actualTick = sys->runTicks();
                v.committedUpTo = sys->committedUpTo();
                v.storesLogged = sys->runLog().allStores().size();
                for (const auto &[line, value] : sys->nvm().all()) {
                    (void)line;
                    if (value != 0)
                        ++v.linesSurvived;
                }
                v.undoReplayed = sys->stats().get("mc.undoRewindWrites");
                v.adrDrainWrites = sys->stats().get("mc.adrDrainWrites");
                counts.storesLogged += double(v.storesLogged);
                std::shared_ptr<const CheckerIndex> index;
                {
                    ScopedSpan s(log, "recovery.index", id);
                    index = sharedCheckerIndex(sys->runLog());
                }
                ScopedSpan s(log, "recovery.check", id);
                const CheckResult check =
                    index->check(NvmView(sys->nvm()), v.committedUpTo);
                v.consistent = check.ok;
                v.message = check.message;
            }
            ScopedSpan s(log, "harness.teardown", id);
            sys.reset();
            stream.reset();
        }
        const bool own = finished && jobOk(r.b, i, res, v);
        if (own && fingerprint(job, res, v) == r.tally.reference(i))
            return true;
        r.failures.report(job, i, !finished
                                      ? "run did not finish"
                                      : failureReason(job, own, v));
        return false;
    }

    Runner &r;
    Clock::time_point epoch_;
    const unsigned workers_ = poolWidth();
};

double
occupancyMean(const std::vector<std::pair<std::size_t, double>> &occ)
{
    double sum = 0.0;
    for (const auto &[job, mean] : occ) {
        (void)job;
        sum += mean;
    }
    return occ.empty() ? 0.0 : sum / double(occ.size());
}

/** Seconds of each layer's self time (span minus its children). */
std::map<std::string, double>
selfTimes(const TracedPass &tp)
{
    std::vector<double> childSum(tp.spans.size(), 0.0);
    for (const Span &s : tp.spans) {
        if (s.parent >= 0)
            childSum[std::size_t(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < tp.spans.size(); ++i) {
        const Span &s = tp.spans[i];
        self[s.name] += (s.end - s.start) - childSum[i];
    }
    return self;
}

/** Pull every serve job's stream to its end without simulating. */
std::pair<double, double>
pullStreams(const Bench &b)
{
    double seconds = 0, requests = 0;
    for (const ExperimentJob &job : b.jobs) {
        if (!isServeWorkload(job.workload))
            continue;
        const auto t0 = Clock::now();
        ServeStream stream(findServeScenario(job.workload),
                           job.cfg.numCores, job.params);
        for (unsigned t = 0; t < stream.numThreads(); ++t) {
            while (stream.next(t).type != OpType::End) {
            }
        }
        seconds += since(t0);
        requests += double(stream.requestsGenerated());
    }
    return {seconds, requests};
}

void
writeSpans(const std::string &path, const std::vector<TracedPass> &passes)
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    // Chrome trace-event format: one complete event per span.
    std::fprintf(f, "[\n");
    bool first = true;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const TracedPass &tp = passes[p];
        for (std::size_t i = 0; i < tp.spans.size(); ++i) {
            const Span &s = tp.spans[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,"
                         "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"job\":%u,\"parent\":%d}}",
                         first ? "" : ",\n", s.name, p + 1,
                         tp.spanWorker[i], s.start * 1e6,
                         (s.end - s.start) * 1e6, s.job, s.parent);
            first = false;
        }
    }
    std::fprintf(f, "\n]\n");
    std::fclose(f);
}

// ---------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu,"
                " \"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)attempted, (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath; //!< derived from the executable's directory
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fig-sweep|serve-stream|crash-check"
                 " --seed N --seconds S --trace 0|1\n",
                 argv0);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const bool hasValue = i + 1 < argc;
        if (!std::strcmp(argv[i], "--workload") && hasValue) {
            a.workload = argv[++i];
            haveWorkload = true;
        } else if (!std::strcmp(argv[i], "--seed") && hasValue) {
            a.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--seconds") && hasValue) {
            a.seconds = std::strtod(argv[++i], nullptr);
        } else if (!std::strcmp(argv[i], "--trace") && hasValue) {
            a.trace = std::strcmp(argv[++i], "0") != 0;
        } else {
            usage(argv[0]);
        }
    }
    if (!haveWorkload ||
        (a.workload != "fig-sweep" && a.workload != "serve-stream" &&
         a.workload != "crash-check") ||
        !(a.seconds > 0))
        usage(argv[0]);
    a.spansPath = (std::filesystem::path(argv[0]).parent_path() / "spans" /
                   (a.workload + "-seed" + std::to_string(a.seed) + ".json"))
                      .string();
    return a;
}

/** Set up kSetupReps times: the runs use the last set-up's job list,
 *  and setup_s is the median time of all of them. */
std::pair<Bench, double>
timedSetUp(const Args &a)
{
    std::vector<double> reps;
    Bench b;
    for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        b = setUp(a.workload, a.seed);
        reps.push_back(since(t0));
    }
    return {std::move(b), perfbench::median(reps)};
}

void
info(const std::string &key, const std::string &value)
{
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/** The fixed workload sizes (the seed is the only input that varies). */
void
infoConfig(std::uint64_t seed)
{
    info("config", "seed " + std::to_string(seed) + " cores " +
                       std::to_string(kCores) + " fig_ops " +
                       std::to_string(kFigOps) + " serve_ops " +
                       std::to_string(kServeOps) + " crash_ops " +
                       std::to_string(kCrashOps) + " crash_ticks " +
                       std::to_string(kCrashTicks) + " fault_bound " +
                       std::to_string(kFaultBound));
}

void
infoWorkload(const Bench &b)
{
    info("workload", b.name + " jobs/pass " +
                         std::to_string(b.jobs.size()) + " workers " +
                         std::to_string(poolWidth()));
}

int
finish(const Runner &run, std::uint64_t attempted, std::uint64_t failed,
       const std::vector<Metric> &metrics)
{
    for (const std::string &p : run.problems)
        info("check failed", p);
    const bool correct = failed == 0 && run.problems.empty();
    printResult(correct, attempted, failed, metrics);
    std::fflush(stdout);
    return correct ? 0 : 1;
}

int
untracedRun(const Args &a)
{
    auto [bench, setupS] = timedSetUp(a);
    Runner run(std::move(bench));
    // job_ms_p50 is a median over passes of each pass's median job:
    // pooling would put it on the edge between serve-stream's fast and
    // slow scenarios. job_ms_p90 pools every pass, so that enough
    // samples lie beyond it.
    std::vector<double> walls, passP50Ms, jobMs;
    // Peak RSS is read after the first pass: what one run of the
    // workload needs. Later passes only add allocator retention that
    // depends on which worker freed what: crash-check's peak after 10
    // passes ranged over 184-230 MB on ten seeds, 154-167 MB after one.
    double peakRss = 0.0;
    const auto start = Clock::now();
    do {
        PassStats ps = run.untracedPass();
        if (walls.empty())
            peakRss = rusageNow().maxRssMb;
        walls.push_back(ps.wall);
        for (double &s : ps.jobSeconds)
            s *= 1e3;
        passP50Ms.push_back(perfbench::median(ps.jobSeconds));
        jobMs.insert(jobMs.end(), ps.jobSeconds.begin(),
                     ps.jobSeconds.end());
    } while (since(start) + walls.back() <= a.seconds);
    const double measuredS = since(start);

    // Fidelity is a property of the Figure 8 suite; other workloads
    // measure it with one untimed pass of that suite at the same seed,
    // after their own peak RSS is read.
    Fidelity fid;
    if (run.b.name == "fig-sweep") {
        fid = fidelity(run.b, run.firstResults);
    } else {
        const Bench fig = figSweep(a.seed);
        clearTraceCache();
        ResultCache cache;
        RunOptions opt;
        opt.jobs = poolWidth();
        opt.cache = &cache;
        fid = fidelity(fig, runJobs(fig.jobs, opt).results);
    }

    const perfbench::Tail p90 = perfbench::tail(jobMs, 90);
    infoConfig(a.seed);
    infoWorkload(run.b);
    info("passes", std::to_string(walls.size()) + " in " +
                       num(measuredS) + " s");
    std::string passWalls;
    for (double w : walls)
        passWalls += (passWalls.empty() ? "" : " ") + num(w);
    info("pass walls s", passWalls);
    info("job_ms samples", std::to_string(p90.samples) + " (" +
                               std::to_string(p90.beyond) +
                               " beyond p90)");
    info("fig08 gmean ASAP_RP", num(fid.fig08Gmean));
    info("fig03 mean HOPS_RP blocked %", num(fid.fig03Mean));
    info("fingerprint", hex(run.tally.digest()));

    const std::vector<Metric> metrics = {
        {"wall_s", perfbench::median(walls), "s"},
        {"job_ms_p50", perfbench::median(passP50Ms), "ms"},
        {"job_ms_p90", p90.value, "ms"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", peakRss, "MB"},
        {"pass_frac", run.tally.passFrac(), "ratio"},
        {"fig08_err", fid.fig08Err(), "ratio"},
        {"fig03_err", fid.fig03Err(), "ratio"},
    };
    return finish(run, run.tally.attempted(), run.tally.failed(), metrics);
}

int
tracedRun(const Args &a, Clock::time_point epoch)
{
    Runner run(setUp(a.workload, a.seed));
    TracedDriver driver(run, epoch);

    double buildTraceSetup = 0.0;
    if (run.b.name == "crash-check")
        buildTraceSetup = driver.prefill();

    std::vector<PassStats> untraced;
    std::vector<TracedPass> traced;
    const auto start = Clock::now();
    double pairS = 0.0;
    do {
        const auto t0 = Clock::now();
        untraced.push_back(run.untracedPass());
        traced.push_back(driver.pass());
        pairS = since(t0);
    } while (since(start) + pairS <= a.seconds || traced.size() < 2);

    std::uint64_t mismatches = 0;
    for (const TracedPass &tp : traced)
        mismatches += tp.mismatches;
    const auto [pullS, pulled] = pullStreams(run.b);
    writeSpans(a.spansPath, traced);

    auto medianOf = [](const auto &xs, auto get) {
        std::vector<double> v;
        for (const auto &x : xs)
            v.push_back(get(x));
        return perfbench::median(v);
    };
    std::vector<std::map<std::string, double>> self;
    for (const TracedPass &tp : traced)
        self.push_back(selfTimes(tp));
    auto layerS = [&](const char *span) {
        return medianOf(self, [&](const auto &m) {
            const auto it = m.find(span);
            return it == m.end() ? 0.0 : it->second;
        });
    };

    const TracedPass &t1 = traced.front();
    const SimCounts &c = t1.counts;
    const double tracedWall = medianOf(traced, [](const TracedPass &t) {
        return t.wall;
    });
    const double untracedWall = medianOf(
        untraced, [](const PassStats &p) { return p.wall; });
    const double simS = layerS("harness.run") + layerS("harness.crash");
    const double permuteS = medianOf(traced, [](const TracedPass &t) {
        return t.permuteS;
    });

    std::vector<Metric> m;
    auto add = [&](const std::string &name, double v, const char *unit) {
        m.push_back({name, v, unit});
    };
    add("workloads.build_trace_s",
        run.b.coldTraces ? layerS("workloads.build_trace")
                         : buildTraceSetup,
        "s");
    add("workloads.trace_ops", driver.memo.ops(), "count");
    add("serve.pull_s", pullS, "s");
    add("serve.requests", c.serveRequests, "count");
    add("serve.persist_p99_ticks", c.persistP99Max, "ticks");
    add("harness.build_s", layerS("harness.build"), "s");
    add("harness.run_s", layerS("harness.run"), "s");
    add("harness.crash_s", layerS("harness.crash"), "s");
    add("harness.teardown_s", layerS("harness.teardown"), "s");
    add("sim.events", c.events, "count");
    add("sim.ns_per_event", c.events > 0 ? 1e9 * simS / c.events : 0.0,
        "ns");
    add("sim.run_ticks", c.runTicks, "ticks");
    add("exp.worker_busy_frac",
        medianOf(untraced, [](const PassStats &p) { return p.busyFrac; }),
        "ratio");
    add("exp.trace_memo_hits", double(untraced.front().traceHits),
        "count");
    add("exp.trace_memo_misses", double(untraced.front().traceMisses),
        "count");
    add("exp.cache_hits", double(untraced.front().cacheHits), "count");
    add("recovery.index_build_s", layerS("recovery.index"), "s");
    add("recovery.check_s", layerS("recovery.check"), "s");
    add("recovery.index_builds", double(t1.indexBuilds), "count");
    add("recovery.index_hits", double(t1.indexHits), "count");
    add("recovery.stores_logged", c.storesLogged, "count");
    add("permute.check_s", permuteS, "s");
    add("permute.states_checked", c.statesChecked, "count");
    add("permute.states_per_s",
        permuteS > 0 ? c.statesChecked / permuteS : 0.0, "1/s");
    add("permute.fault_bad_states", c.faultBadStates, "count");
    for (const auto &[metric, stat] : kStatSums) {
        (void)stat;
        const auto it = c.sums.find(metric);
        add(metric, it == c.sums.end() ? 0.0 : it->second, "count");
    }
    add("persist.pb_blocked_frac",
        c.coreCycles > 0 ? c.blocked / c.coreCycles : 0.0, "ratio");
    add("persist.pb_occ_mean", occupancyMean(c.occupancy),
        "entries");
    add("core.rt_max_occupancy", c.rtMaxOcc, "entries");
    add("mem.xp_hit_frac",
        c.xpHits + c.xpMisses > 0 ? c.xpHits / (c.xpHits + c.xpMisses)
                                  : 0.0,
        "ratio");
    add("host.user_s",
        medianOf(untraced, [](const PassStats &p) { return p.usage.userS; }),
        "s");
    add("host.sys_s",
        medianOf(untraced, [](const PassStats &p) { return p.usage.sysS; }),
        "s");
    add("host.minor_faults",
        medianOf(untraced,
                 [](const PassStats &p) { return p.usage.minorFaults; }),
        "count");
    add("trace.overhead_frac", tracedWall / untracedWall - 1.0, "ratio");

    // Simulated counts are exact: every traced pass must agree.
    for (const TracedPass &tp : traced) {
        if (!(tp.counts == c))
            run.problems.push_back("simulated counts differ between "
                                   "traced passes");
    }
    if (pulled != c.serveRequests)
        run.problems.push_back("pulled stream request count differs "
                               "from the simulated one");

    infoConfig(a.seed);
    infoWorkload(run.b);
    info("passes", std::to_string(untraced.size()) + " untraced + " +
                       std::to_string(traced.size()) + " traced");
    info("fingerprint", hex(run.tally.digest()));
    info("traced jobs differing from untraced", std::to_string(mismatches));
    const std::uint64_t tracedJobs = traced.size() * run.b.jobs.size();
    return finish(run, run.tally.attempted() + tracedJobs,
                  run.tally.failed() + mismatches, m);
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point epoch = Clock::now();
    const Args a = parseArgs(argc, argv);
    // Runs are self-contained: no trace files from earlier processes.
    setTraceDirectory("");
    return a.trace ? tracedRun(a, epoch) : untracedRun(a);
}
