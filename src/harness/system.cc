#include "harness/system.hh"

#include <algorithm>

#include "core/asap_model.hh"
#include "models/baseline_model.hh"
#include "models/eadr_model.hh"
#include "models/hops_model.hh"
#include "sim/log.hh"

namespace asap
{

System::System(const SimConfig &cfg_in, bool keep_run_log)
    : cfg(cfg_in), amap(cfg.numMCs, cfg.interleaveBytes),
      keepRunLog(keep_run_log)
{
    fatal_if(cfg.numCores == 0, "need at least one core");
    fatal_if(cfg.numMCs > 32, "earlyMcMask supports at most 32 MCs");

    for (unsigned i = 0; i < cfg.numMCs; ++i) {
        mcOwners.push_back(std::make_unique<MemoryController>(
            i, cfg, eq, media, stats_));
        mcs.push_back(mcOwners.back().get());
    }

    if (cfg.model == ModelKind::Asap) {
        for (unsigned i = 0; i < cfg.numMCs; ++i) {
            rts.push_back(std::make_unique<RecoveryTable>(
                i, cfg.rtEntries, stats_));
            mcs[i]->setPolicy(rts.back().get());
        }
    }

    caches = std::make_unique<CacheHierarchy>(cfg, stats_);
    if (!rts.empty()) {
        // LLC evictions of lines with NACK-pending flushes are delayed
        // (Section V-F): probe the owning controller's Bloom filter.
        caches->setEvictFilter([this](std::uint64_t line) {
            return rts[amap.mcFor(line)]->nackPending(line);
        });
    }

    board = std::make_unique<ReleaseBoard>(cfg.numCores);
    ctx = std::make_unique<ModelContext>(
        ModelContext{cfg, eq, stats_, amap, mcs, &media, nullptr, {}});
    if (cfg.model == ModelKind::Eadr) {
        ctx->eadrDirty = std::make_shared<
            std::unordered_map<std::uint64_t, std::uint64_t>>();
    }

    for (unsigned t = 0; t < cfg.numCores; ++t) {
        std::unique_ptr<PersistModel> m;
        switch (cfg.model) {
          case ModelKind::Baseline:
            m = std::make_unique<BaselineModel>(t, *ctx);
            break;
          case ModelKind::Hops:
            m = std::make_unique<HopsModel>(t, *ctx);
            break;
          case ModelKind::Asap:
            m = std::make_unique<AsapModel>(t, *ctx);
            break;
          case ModelKind::Eadr:
            m = std::make_unique<EadrModel>(t, *ctx);
            break;
        }
        models.push_back(m.get());
        modelOwners.push_back(std::move(m));
    }
    ctx->peers = models;
}

System::~System() = default;

void
System::loadTrace(TraceSet traces)
{
    fatal_if(traces.threads.size() != cfg.numCores,
             "trace has ", traces.threads.size(), " threads but the "
             "system has ", cfg.numCores, " cores");
    for (unsigned t = 0; t < cfg.numCores; ++t) {
        fatal_if(traces.threads[t].empty() ||
                 traces.threads[t].back().type != OpType::End,
                 "thread ", t, " trace must end with an End op");
    }
    ownedSource = std::make_unique<MaterializedSource>(std::move(traces));
    loadStream(*ownedSource);
}

void
System::loadStream(OpSource &src)
{
    fatal_if(src.numThreads() != cfg.numCores,
             "op source has ", src.numThreads(), " threads but the "
             "system has ", cfg.numCores, " cores");
    panic_if(!cores.empty(), "loadStream() called twice");
    for (unsigned t = 0; t < cfg.numCores; ++t) {
        cores.push_back(std::make_unique<Core>(
            t, cfg, eq, stats_, *caches, *board, models,
            keepRunLog ? &log : nullptr, src));
    }
}

bool
System::run()
{
    panic_if(cores.empty(), "run() before loadTrace()");
    for (auto &c : cores)
        c->start();
    const bool drained = eq.run(cfg.maxRunTicks);
    bool all_done = true;
    Tick last = 0;
    for (auto &c : cores) {
        all_done = all_done && c->finished();
        last = std::max(last, c->finishTick());
    }
    runTicks_ = all_done ? last : eq.now();
    stats_.set("sim.runTicks", runTicks_);
    stats_.set("sim.eventsExecuted", eq.executed());
    if (!drained || !all_done) {
        warn("run stopped before all cores finished (possible "
             "deadlock or maxRunTicks too low)");
        return false;
    }
    return true;
}

void
System::crashAt(Tick tick, const std::function<void()> &at_crash)
{
    panic_if(cores.empty(), "crashAt() before loadTrace()");
    if (!crashed) {
        for (auto &c : cores)
            c->start();
    }
    eq.run(tick);
    crashed = true;
    for (auto &c : cores)
        c->halt();
    if (at_crash)
        at_crash();
    for (PersistModel *m : models)
        m->crash();
    for (MemoryController *mc : mcs)
        mc->crash();
    // The in-flight schedule dies with the power: drop it in one sweep
    // and record how much was pending (crash diagnostics).
    stats_.set("sim.eventsDropped", eq.clear());
    runTicks_ = eq.now();
    stats_.set("sim.runTicks", runTicks_);
    stats_.set("sim.eventsExecuted", eq.executed());
    stats_.inc("sim.crashes");
}

std::vector<std::uint64_t>
System::committedUpTo() const
{
    std::vector<std::uint64_t> out;
    out.reserve(models.size());
    for (const PersistModel *m : models)
        out.push_back(m->lastCommittedEpoch());
    return out;
}

} // namespace asap
