#include "exp/sweep.hh"

#include <utility>

namespace asap
{

std::string
toString(JobKind kind)
{
    switch (kind) {
      case JobKind::Crash:
        return "crash";
      case JobKind::Permute:
        return "permute";
      default:
        return "run";
    }
}

bool
tryParseJobKind(const std::string &name, JobKind &out)
{
    for (JobKind k : {JobKind::Run, JobKind::Crash, JobKind::Permute}) {
        if (name == toString(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

std::size_t
SweepSpec::jobCount() const
{
    const std::size_t media =
        mediaProfiles.empty() ? 1 : mediaProfiles.size();
    return workloads.size() * media * models.size() * coreCounts.size();
}

std::vector<ExperimentJob>
SweepSpec::expand() const
{
    // An empty media axis means "whatever the base config says" —
    // one pass with base.mediaProfile untouched.
    std::vector<std::string> media = mediaProfiles;
    if (media.empty())
        media.push_back(base.mediaProfile);
    std::vector<ExperimentJob> jobs;
    jobs.reserve(jobCount());
    for (const std::string &w : workloads) {
        for (const std::string &profile : media) {
            for (const ModelPair &m : models) {
                for (unsigned cores : coreCounts) {
                    ExperimentJob job;
                    job.workload = w;
                    job.cfg = base;
                    job.cfg.mediaProfile = profile;
                    job.cfg.model = m.first;
                    job.cfg.persistency = m.second;
                    job.cfg.numCores = cores;
                    job.cfg.seed = params.seed;
                    job.params = params;
                    jobs.push_back(std::move(job));
                }
            }
        }
    }
    return jobs;
}

std::size_t
JobSet::add(std::string workload, const SimConfig &cfg,
            const WorkloadParams &p)
{
    ExperimentJob job;
    job.workload = std::move(workload);
    job.cfg = cfg;
    job.cfg.seed = p.seed;
    job.params = p;
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

std::size_t
JobSet::add(std::string workload, ModelKind model, PersistencyModel pm,
            unsigned cores, const WorkloadParams &p)
{
    SimConfig cfg;
    cfg.model = model;
    cfg.persistency = pm;
    cfg.numCores = cores;
    return add(std::move(workload), cfg, p);
}

std::size_t
JobSet::addCrash(std::string workload, const SimConfig &cfg,
                 const WorkloadParams &p, Tick crash_tick)
{
    const std::size_t i = add(std::move(workload), cfg, p);
    jobs_[i].kind = JobKind::Crash;
    jobs_[i].crashTick = crash_tick;
    return i;
}

std::size_t
JobSet::addPermute(std::string workload, const SimConfig &cfg,
                   const WorkloadParams &p, Tick crash_tick,
                   std::uint64_t bound, std::uint64_t seed,
                   std::string fault, std::string state,
                   std::string engine, unsigned threads)
{
    const std::size_t i = add(std::move(workload), cfg, p);
    jobs_[i].kind = JobKind::Permute;
    jobs_[i].crashTick = crash_tick;
    jobs_[i].permuteBound = bound;
    jobs_[i].permuteSeed = seed;
    jobs_[i].permuteFault = std::move(fault);
    jobs_[i].permuteState = std::move(state);
    jobs_[i].permuteEngine = std::move(engine);
    jobs_[i].permuteThreads = threads;
    return i;
}

} // namespace asap
