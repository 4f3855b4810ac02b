/**
 * @file
 * Crash-injection campaigns: systematic sweeps of power-failure
 * points through the experiment engine.
 *
 * A campaign fuzzes recovery consistency at scale: for every
 * (workload, model, core count) configuration it first measures the
 * undisturbed runtime and epoch count with a probe Run job, derives a
 * set of crash ticks from a selection strategy, then executes one
 * Crash job per tick — all through runJobs(), so crash points sweep
 * in parallel, deduplicate, and cache exactly like figure sweeps
 * (warm ASAP_CACHE_DIR re-runs are instant). Every inconsistency is
 * reproducible from a single printed `--repro` command line.
 */

#ifndef ASAP_EXP_CRASH_CAMPAIGN_HH
#define ASAP_EXP_CRASH_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/engine.hh"
#include "exp/sweep.hh"

namespace asap
{

/** How a campaign picks crash ticks within a config's runtime. */
enum class TickStrategy
{
    Stride,      //!< uniform stride across [1, runTicks]
    EpochBiased, //!< clustered near estimated epoch boundaries
    Random,      //!< seeded uniform random
};

/** Parse "stride|epoch|random"; returns false on an unknown name. */
bool tryParseTickStrategy(const std::string &name, TickStrategy &out);

/** Parse "stride|epoch|random" (fatal on anything else, listing the
 *  valid strategies in the error). */
TickStrategy parseTickStrategy(const std::string &name);

/** Printable name for the enum above. */
std::string toString(TickStrategy strategy);

/** One tick strategy the parser accepts, for --list-strategies. */
struct TickStrategyInfo
{
    TickStrategy strategy;
    const char *name;
    const char *description;
};

/** Every strategy, in parse order. */
const std::vector<TickStrategyInfo> &allTickStrategies();

/**
 * Pick @p count crash ticks in [1, total_ticks].
 *
 * Deterministic in its arguments. EpochBiased estimates per-thread
 * epoch boundaries as evenly spaced commit points (the run's epoch
 * count is a global total, so boundary spacing is
 * total_ticks * cores / epochs) and samples tightly around them —
 * the moments the Recovery Table is busiest. Duplicate ticks are
 * possible for tiny runs; the engine dedups the resulting jobs.
 */
std::vector<Tick> selectCrashTicks(TickStrategy strategy,
                                   Tick total_ticks,
                                   std::uint64_t epochs, unsigned cores,
                                   unsigned count, std::uint64_t seed);

/** Declarative crash campaign over a configuration cross-product. */
struct CampaignSpec
{
    std::vector<std::string> workloads;
    std::vector<ModelPair> models;
    std::vector<unsigned> coreCounts = {4};
    WorkloadParams params;
    /** Base configuration; model/persistency/numCores/seed are
     *  overwritten per job, as in SweepSpec. */
    SimConfig base;

    TickStrategy strategy = TickStrategy::Stride;
    unsigned ticksPerConfig = 40; //!< crash points per configuration
    std::uint64_t tickSeed = 1;   //!< seed for tick selection

    /** What each crash point runs: Crash checks the canonical
     *  post-crash state; Permute enumerates every reachable one
     *  (src/permute) with the knobs below. Probe jobs, tick
     *  selection and the probe memo are identical either way. */
    JobKind sweepKind = JobKind::Crash;
    std::uint64_t permuteBound = 4096; //!< max states per crash point
    std::uint64_t permuteSeed = 1;     //!< sampling seed above bound
    std::string permuteFault;          //!< fault hook ("", "drop-undo")
    /** Check-loop execution knobs (never keyed — see ExperimentJob). */
    std::string permuteEngine;   //!< "", "incremental", "naive"
    unsigned permuteThreads = 1; //!< 1 = inline, 0 = hw threads
};

/** Per-configuration verdict summary row. */
struct CampaignRow
{
    std::string workload;
    ModelKind model = ModelKind::Asap;
    PersistencyModel pm = PersistencyModel::Release;
    unsigned cores = 0;

    Tick probeTicks = 0;          //!< undisturbed runtime (probe job)
    std::uint64_t probeEpochs = 0; //!< epochs opened in the probe
    std::size_t points = 0;       //!< crash points executed
    std::size_t consistent = 0;   //!< verdicts that passed the checker
};

/** A completed campaign: the crash sweep plus verdict accounting. */
struct CampaignResult
{
    SweepResult sweep;             //!< the crash jobs, in config order
    std::vector<CampaignRow> rows; //!< one row per configuration
    std::vector<std::size_t> badJobs; //!< sweep indices, inconsistent

    /** True when the probe phase was served from the memoized probe
     *  summary instead of running the probe sweep. */
    bool probePhaseCached = false;

    std::size_t crashPoints() const { return sweep.jobs.size(); }
    bool allConsistent() const { return badJobs.empty(); }
};

/**
 * Probe summary of one configuration: the only two stats crash-tick
 * selection needs. A full probe RunResult is memoized down to this
 * pair so warm campaigns skip the probe phase entirely —
 * no probe sweep, no per-probe cache assembly.
 */
struct ProbeStat
{
    Tick runTicks = 0;          //!< undisturbed runtime
    std::uint64_t epochs = 0;   //!< epochs opened
};

/**
 * Aux-tier memo key for @p spec's probe phase: "prb-" + hash over the
 * ordered probe job keys. Strategy/ticksPerConfig/tickSeed are
 * deliberately excluded — they shape tick *selection*, not probe
 * *output* — so campaigns differing only in those share one memo.
 */
std::string probeMemoKey(const CampaignSpec &spec);

/** Render probe stats as aux-cache text (order = probe-job order). */
std::string serializeProbeStats(const std::vector<ProbeStat> &stats);

/**
 * Parse serializeProbeStats() output.
 * @return false if truncated, malformed, or the count disagrees
 */
bool deserializeProbeStats(const std::string &text,
                           std::vector<ProbeStat> &out);

/**
 * Probe stats for @p spec from @p cache's aux tier, if a previous
 * campaign (this process or, with a disk cache, any process) derived
 * them.
 * @return true and fills @p out on a hit
 */
bool lookupProbeStats(const CampaignSpec &spec, ResultCache &cache,
                      std::vector<ProbeStat> &out);

/**
 * Reduce @p probe_sr — the result of running campaignProbeJobs(spec),
 * however it was run — to probe stats and memoize them in @p cache's
 * aux tier for the next campaign.
 */
std::vector<ProbeStat> memoizeProbeStats(const CampaignSpec &spec,
                                         ResultCache &cache,
                                         const SweepResult &probe_sr);

/**
 * The probe phase, memoized: lookupProbeStats(), else the probe sweep
 * through runJobs() and memoizeProbeStats(). Stats come in
 * campaignProbeJobs() order.
 * @param from_memo when non-null, set to true on an aux-tier hit
 */
std::vector<ProbeStat> ensureProbeStats(const CampaignSpec &spec,
                                        const RunOptions &opt,
                                        bool *from_memo = nullptr);

/**
 * Phase 1 of a campaign: one probe Run job per (workload, model,
 * core count) configuration, in the cross-product order rows are
 * reported in. Probes measure the undisturbed runtime and epoch
 * count that bound crash-tick selection.
 */
std::vector<ExperimentJob> campaignProbeJobs(const CampaignSpec &spec);

/** Phase-2 expansion: the crash jobs and their per-config rows. */
struct CampaignExpansion
{
    std::vector<ExperimentJob> crashJobs; //!< config-major, tick order
    std::vector<CampaignRow> rows;        //!< points filled, verdicts not
};

/**
 * Derive the crash sweep from probe results. @p probe_sr must be the
 * result of running campaignProbeJobs(spec) — tick selection is
 * deterministic in the spec and the probe stats, so every shard of a
 * distributed campaign expands an identical job list.
 */
CampaignExpansion expandCampaign(const CampaignSpec &spec,
                                 const SweepResult &probe_sr);

/**
 * Same expansion from bare probe stats (campaignProbeJobs() order) —
 * the form a memoized probe phase restores without ever materializing
 * a probe SweepResult. Fatal if the counts disagree.
 */
CampaignExpansion expandCampaign(const CampaignSpec &spec,
                                 const std::vector<ProbeStat> &stats);

/**
 * Run a campaign: probe phase (memoized via ensureProbeStats), tick
 * selection, crash sweep. Sweeps go through runJobs() with @p opt
 * (parallel + cached).
 */
CampaignResult runCampaign(const CampaignSpec &spec,
                           const RunOptions &opt = {});

/**
 * One-line `bench/crash_campaign --repro ...` (or, for Permute jobs,
 * `bench/crash_permute --repro ...`) invocation that replays exactly
 * @p job (workload, model, seed, crash tick, permute knobs) and
 * reprints its verdict. @p state narrows a permute repro to a single
 * enumerated state (pass the verdict's firstBadState).
 */
std::string reproCommand(const ExperimentJob &job,
                         const std::string &state = "");

} // namespace asap

#endif // ASAP_EXP_CRASH_CAMPAIGN_HH
