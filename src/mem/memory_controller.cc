#include "mem/memory_controller.hh"

#include <memory>
#include <utility>

#include "sim/log.hh"

namespace asap
{

namespace
{
/** Fixed pipeline cost for classifying an incoming packet. */
constexpr Tick mcProcCost = 4;
/** Fixed pipeline cost for processing a commit message. */
constexpr Tick mcCommitCost = 8;
} // namespace

MemoryController::MemoryController(unsigned id, const SimConfig &cfg,
                                   EventQueue &eq, NvmContents &media,
                                   StatSet &stats)
    : id_(id), cfg(cfg), eq(eq), media(media), stats(stats),
      mediaModel_(makeMediaModelFor(cfg, id)), wpq(cfg.wpqEntries),
      xpBuffer(cfg.xpBufferLines),
      statPrefix("mc" + std::to_string(id) + "."),
      stFlushesReceived(stats, statPrefix, "flushesReceived"),
      stEarlyFlushesReceived(stats, statPrefix, "earlyFlushesReceived"),
      stSuppressedWrites(stats, statPrefix, "suppressedWrites"),
      stUndoReads(stats, statPrefix, "undoReads"),
      stXpHits(stats, statPrefix, "xpHits"),
      stXpMisses(stats, statPrefix, "xpMisses"),
      stPmReads(stats, statPrefix, "pmReads"),
      stDelaysCreated(stats, statPrefix, "delaysCreated"),
      stNacksSent(stats, statPrefix, "nacksSent"),
      stCommitsReceived(stats, statPrefix, "commitsReceived"),
      stDelayWritesReleased(stats, statPrefix, "delayWritesReleased"),
      stWpqCoalesced(stats, statPrefix, "wpqCoalesced"),
      stWpqFullStalls(stats, statPrefix, "wpqFullStalls"),
      stPmWrites(stats, statPrefix, "pmWrites"),
      stBytesWritten(stats, statPrefix, "bytesWritten"),
      stBankBusyTicks(stats, statPrefix, "bankBusyTicks"),
      stBwQueueDelayTicks(stats, statPrefix, "bwQueueDelayTicks"),
      stAdrDrainWrites(stats, statPrefix, "adrDrainWrites"),
      stUndoRewindWrites(stats, statPrefix, "undoRewindWrites")
{
}

std::uint64_t
MemoryController::durableValue(std::uint64_t line) const
{
    if (wpq.contains(line))
        return wpq.pendingValue(line);
    return media.read(line);
}

std::size_t
MemoryController::rtOccupancy() const
{
    return policy_ ? policy_->occupancy() : 0;
}

void
MemoryController::receiveFlush(const FlushPacket &pkt, FlushCallback cb)
{
    if (crashed)
        return;
    stFlushesReceived.inc();
    if (pkt.early)
        stEarlyFlushesReceived.inc();

    const std::uint64_t current = durableValue(pkt.line);
    FlushAction action = FlushAction::WriteMemory;
    if (policy_) {
        action = policy_->onFlush(pkt, current);
    } else {
        panic_if(pkt.early, "early flush arrived at a controller with no "
                 "recovery policy");
    }

    const Tick ackLink = cfg.mcMessageLatency;
    switch (action) {
      case FlushAction::WriteMemory:
        enqueueWrite(pkt.line, pkt.value, 0, [this, cb, ackLink]() {
            eq.scheduleAfterIn(EventQueue::kCoreDomain, ackLink,
                               [cb]() { cb(FlushReply::Ack); });
        });
        break;

      case FlushAction::SuppressWrite:
        // The value was absorbed into an existing undo record; no
        // media write happens (write-endurance win, Section VII-A).
        stSuppressedWrites.inc();
        eq.scheduleAfterIn(EventQueue::kCoreDomain, mcProcCost + ackLink,
                           [cb]() { cb(FlushReply::Ack); });
        break;

      case FlushAction::CreateUndoAndWrite: {
        // The undo snapshot read logically precedes the speculative
        // media update, but the write is durable (and ACKed) once it
        // sits in the WPQ next to its undo record; the read only
        // lengthens that entry's media service time. It is cheap when
        // the line is WPQ-pending or hot in the XPBuffer, a full
        // media read otherwise.
        const bool wpqHit = wpq.contains(pkt.line);
        const bool xpHit = !wpqHit && xpBuffer.hit(pkt.line);
        const bool fast = wpqHit || xpHit;
        const Tick readLat = fast ? mediaModel_->hitLatency()
                                  : mediaModel_->readLatency();
        stUndoReads.inc();
        // XPBuffer hit/miss accounting: a WPQ-pending line never
        // reaches the XPBuffer lookup, so only genuine probes count.
        if (xpHit)
            stXpHits.inc();
        else if (!wpqHit)
            stXpMisses.inc();
        if (!fast)
            stPmReads.inc();
        xpBuffer.touch(pkt.line);
        enqueueWrite(pkt.line, pkt.value, readLat,
                     [this, cb, ackLink]() {
            eq.scheduleAfterIn(EventQueue::kCoreDomain, ackLink,
                               [cb]() { cb(FlushReply::Ack); });
        });
        break;
      }

      case FlushAction::CreateDelay:
        stDelaysCreated.inc();
        eq.scheduleAfterIn(EventQueue::kCoreDomain, mcProcCost + ackLink,
                           [cb]() { cb(FlushReply::Ack); });
        break;

      case FlushAction::Nack:
        stNacksSent.inc();
        eq.scheduleAfterIn(EventQueue::kCoreDomain, mcProcCost + ackLink,
                           [cb]() { cb(FlushReply::Nack); });
        break;
    }
}

void
MemoryController::receiveCommit(std::uint16_t thread, std::uint64_t epoch,
                                std::function<void()> ack_cb)
{
    if (crashed)
        return;
    stCommitsReceived.inc();
    panic_if(!policy_, "commit message at a controller with no policy");
    // The commit may release delay-record writes; they are durable
    // only once inside the WPQ (the ADR domain), so the commit ACK —
    // which lets the epoch commit and dependents proceed — must wait
    // for every released write to be accepted. The countdown starts
    // at one for the fixed-cost finish event scheduled below.
    auto pending = std::make_shared<unsigned>(1);
    auto finish = [pending, cb = std::move(ack_cb)]() {
        if (--*pending == 0)
            cb();
    };
    policy_->onCommit(thread, epoch,
                      [this, pending, finish](std::uint64_t line,
                                              std::uint64_t value) {
                          stDelayWritesReleased.inc();
                          ++*pending;
                          enqueueWrite(line, value, 0, finish);
                      });
    eq.scheduleAfterIn(EventQueue::kCoreDomain,
                       mcCommitCost + cfg.mcMessageLatency, finish);
}

void
MemoryController::enqueueWrite(std::uint64_t line, std::uint64_t value,
                               std::uint64_t extra_latency,
                               std::function<void()> on_inserted)
{
    switch (wpq.insert(line, value, extra_latency, eq.now())) {
      case Wpq::Insert::Queued:
        on_inserted();
        tryIssueBanks();
        break;
      case Wpq::Insert::Coalesced:
        stWpqCoalesced.inc();
        on_inserted();
        break;
      case Wpq::Insert::Full:
        stWpqFullStalls.inc();
        overflow.push_back(OverflowWrite{line, value, extra_latency,
                                         std::move(on_inserted)});
        break;
    }
}

void
MemoryController::tryIssueBanks()
{
    while (busyBanks < mediaModel_->banks() && !wpq.empty()) {
        auto [line, value, extra, inserted] = wpq.front();
        // Write-combining window: a young entry waits (unless the
        // queue is under pressure) so same-line writes coalesce; the
        // entry is already durable in the WPQ either way.
        const Tick ripe = inserted + cfg.wpqCombineWindow;
        if (eq.now() < ripe && wpq.size() < cfg.wpqEntries / 2 &&
            overflow.empty()) {
            if (!drainCheckScheduled) {
                drainCheckScheduled = true;
                eq.schedule(ripe, [this]() {
                    drainCheckScheduled = false;
                    if (!crashed)
                        tryIssueBanks();
                });
            }
            break;
        }
        wpq.pop();
        admitOverflow();
        ++busyBanks;
        // Functional media state updates at issue time so same-line
        // writes apply in WPQ order regardless of their service
        // latencies; the events below model timing only. The write
        // leaving the WPQ is still inside the controller and reaches
        // the media even on a power failure (ADR).
        media.write(line, value);
        xpBuffer.touch(line);
        const MediaModel::WriteGrant grant =
            mediaModel_->startWrite(eq.now(), lineBytes);
        stPmWrites.inc();
        stBytesWritten.inc(lineBytes);
        stBankBusyTicks.inc(grant.serviceLatency);
        if (grant.queueDelay != 0)
            stBwQueueDelayTicks.inc(grant.queueDelay);
        // The undo-snapshot read (extra) is served by the separate
        // read path whose bandwidth far exceeds write bandwidth
        // (Section V-A), so it does not extend the write bank's
        // occupancy; it is accounted in the pmReads statistics.
        (void)extra;
        eq.scheduleAfter(grant.serviceLatency, [this]() {
            if (crashed)
                return;
            --busyBanks;
            tryIssueBanks();
        });
    }
}

void
MemoryController::admitOverflow()
{
    while (!overflow.empty() && !wpq.full()) {
        OverflowWrite w = std::move(overflow.front());
        overflow.pop_front();
        switch (wpq.insert(w.line, w.value, w.extraLatency, eq.now())) {
          case Wpq::Insert::Queued:
            w.onInserted();
            break;
          case Wpq::Insert::Coalesced:
            stWpqCoalesced.inc();
            w.onInserted();
            break;
          case Wpq::Insert::Full:
            panic("WPQ full immediately after freeing a slot");
        }
    }
}

void
MemoryController::crash()
{
    crashed = true;
    // ADR drains the WPQ to the media.
    for (auto &[line, value] : wpq.drainAll()) {
        media.write(line, value);
        stAdrDrainWrites.inc();
    }
    // Writes never accepted into the WPQ are lost (never ACKed).
    overflow.clear();
    // Finally, undo records rewind every speculative update.
    if (policy_) {
        policy_->onCrash([this](std::uint64_t line, std::uint64_t value) {
            media.write(line, value);
            stUndoRewindWrites.inc();
        });
    }
}

} // namespace asap
