/**
 * @file
 * Sweep specifications: declarative descriptions of experiment
 * cross-products.
 *
 * A SweepSpec names the workloads, (model, persistency) pairs, core
 * counts and workload parameters of a study; expand() turns it into
 * the flat vector of ExperimentJobs the engine executes. Benches that
 * need irregular job lists (per-job config overrides, mixed
 * workloads) build the vector directly with JobSet.
 */

#ifndef ASAP_EXP_SWEEP_HH
#define ASAP_EXP_SWEEP_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/ticks.hh"
#include "workloads/params.hh"

namespace asap
{

/**
 * What a job asks the engine to do, and therefore what its result is:
 * Run jobs produce a RunResult stat bundle; Crash jobs inject a power
 * failure at crashTick and produce a recovery-checker verdict (plus
 * the stats of the truncated run).
 */
enum class JobKind
{
    Run,     //!< complete simulation, RunResult stats
    Crash,   //!< crash injection + consistency check, CrashVerdict
    Permute, //!< crash injection + reachable-state enumeration check
};

/** Printable name ("run"/"crash"/"permute"). */
std::string toString(JobKind kind);

/** Parse toString(JobKind) output; returns false on anything else. */
bool tryParseJobKind(const std::string &name, JobKind &out);

/**
 * One simulation the engine can run: runExperiment(workload, cfg,
 * params). cfg carries the model/persistency/core-count selection.
 * Crash jobs additionally carry the injection tick; Permute jobs
 * carry the injection tick plus the enumeration knobs.
 */
struct ExperimentJob
{
    std::string workload;
    SimConfig cfg;
    WorkloadParams params;
    JobKind kind = JobKind::Run;
    Tick crashTick = 0; //!< power-failure tick (Crash/Permute jobs)

    // Permute jobs only (see src/permute/).
    std::uint64_t permuteBound = 4096; //!< max states checked per tick
    std::uint64_t permuteSeed = 1;     //!< sampling seed above bound
    std::string permuteFault;          //!< fault hook ("", "drop-undo")
    std::string permuteState;          //!< hex mask: single-state repro

    /**
     * Check-loop execution knobs (engine name and worker threads).
     * These deliberately do NOT enter job keys or caches: every
     * engine/thread-count combination produces bit-identical
     * verdicts, so keying them would only split the cache.
     */
    std::string permuteEngine;   //!< "", "incremental", "naive"
    unsigned permuteThreads = 1; //!< 1 = inline, 0 = hw threads
};

/** A (hardware model, persistency model) column of a figure. */
using ModelPair = std::pair<ModelKind, PersistencyModel>;

/**
 * Declarative cross-product sweep: workloads x mediaProfiles x models
 * x coreCounts.
 *
 * expand() emits jobs workload-major (all media profiles, models and
 * core counts of the first workload, then the second, ...), media
 * profiles next, then models, core counts innermost — the iteration
 * order of the paper's figure tables.
 */
struct SweepSpec
{
    std::vector<std::string> workloads;
    /** Media profiles (src/media/) to sweep; empty = just
     *  base.mediaProfile, which leaves single-media sweeps (all the
     *  paper figures) byte-identical to the pre-media engine. */
    std::vector<std::string> mediaProfiles;
    std::vector<ModelPair> models;
    std::vector<unsigned> coreCounts = {4};
    WorkloadParams params;
    /** Base configuration; model/persistency/numCores/seed are
     *  overwritten per job during expansion. */
    SimConfig base;

    /** Number of jobs expand() will produce. */
    std::size_t jobCount() const;

    /** Expand the cross-product into concrete jobs. */
    std::vector<ExperimentJob> expand() const;
};

/**
 * Builder for irregular job lists. add() returns the job's index so a
 * bench can map table cells to results after the run.
 */
class JobSet
{
  public:
    /** Add a fully specified job. */
    std::size_t add(std::string workload, const SimConfig &cfg,
                    const WorkloadParams &p);

    /** Add a job from parts (remaining config fields are defaults). */
    std::size_t add(std::string workload, ModelKind model,
                    PersistencyModel pm, unsigned cores,
                    const WorkloadParams &p);

    /** Add a crash-injection job: power failure at @p crash_tick,
     *  result is a recovery-checker verdict. */
    std::size_t addCrash(std::string workload, const SimConfig &cfg,
                         const WorkloadParams &p, Tick crash_tick);

    /** Add a crash-state permutation job: power failure at
     *  @p crash_tick, every reachable post-crash state checked (up to
     *  @p bound states, sampled with @p seed beyond it). @p fault
     *  optionally injects a test-only recovery fault; @p state
     *  restricts checking to one hex state mask (--repro).
     *  @p engine / @p threads pick the check loop (execution knobs —
     *  see the field comment). */
    std::size_t addPermute(std::string workload, const SimConfig &cfg,
                           const WorkloadParams &p, Tick crash_tick,
                           std::uint64_t bound, std::uint64_t seed,
                           std::string fault = "",
                           std::string state = "",
                           std::string engine = "",
                           unsigned threads = 1);

    const std::vector<ExperimentJob> &jobs() const { return jobs_; }
    std::size_t size() const { return jobs_.size(); }

  private:
    std::vector<ExperimentJob> jobs_;
};

} // namespace asap

#endif // ASAP_EXP_SWEEP_HH
