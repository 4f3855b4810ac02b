/**
 * @file
 * NVM memory controller timing model.
 *
 * Each controller owns a Write Pending Queue (inside the ADR
 * persistence domain), a MediaModel (src/media/) whose banks drain it
 * with the selected profile's write service latency and bandwidth
 * cap, an XPBuffer-style recency cache that accelerates undo-snapshot
 * reads, and optionally a RecoveryPolicy (ASAP's Recovery Table). The
 * controller is entirely event driven; back-pressure emerges from the
 * WPQ filling up (amplified on bandwidth-capped media by the queueing
 * delay that extends bank occupancy), which delays flush
 * acknowledgements and in turn throttles the persist buffers.
 */

#ifndef ASAP_MEM_MEMORY_CONTROLLER_HH
#define ASAP_MEM_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "media/media.hh"
#include "mem/nvm_contents.hh"
#include "mem/packets.hh"
#include "mem/recovery_policy.hh"
#include "mem/wpq.hh"
#include "mem/xpbuffer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace asap
{

/** One NVM memory controller. */
class MemoryController
{
  public:
    /**
     * @param id controller index (for stat names)
     * @param cfg system configuration (latencies, queue sizes)
     * @param eq shared event queue
     * @param media functional NVM backing store (shared by all MCs)
     * @param stats shared stats registry
     */
    MemoryController(unsigned id, const SimConfig &cfg, EventQueue &eq,
                     NvmContents &media, StatSet &stats);

    /** Attach the speculation policy (ASAP's Recovery Table). */
    void setPolicy(RecoveryPolicy *policy) { policy_ = policy; }

    /**
     * A flush packet arrives (the sender already paid the link
     * latency). @p cb fires with Ack/Nack once the controller has
     * classified the flush and, for memory-updating actions, accepted
     * the write into the WPQ.
     */
    void receiveFlush(const FlushPacket &pkt, FlushCallback cb);

    /**
     * An epoch commit message arrives (ASAP only). The recovery
     * policy drops the epoch's undo records and releases its delay
     * records; @p ack_cb fires when the controller has acknowledged.
     */
    void receiveCommit(std::uint16_t thread, std::uint64_t epoch,
                       std::function<void()> ack_cb);

    /**
     * Power failure: flush the ADR domain. Pending WPQ writes and
     * in-flight bank writes reach the media, then undo records rewind
     * every speculative update (Section V-E).
     */
    void crash();

    /** Current durable value for @p line (WPQ takes precedence). */
    std::uint64_t durableValue(std::uint64_t line) const;

    /** Recovery-policy occupancy (0 when no policy attached). */
    std::size_t rtOccupancy() const;

    /** Attached recovery policy (nullptr for non-ASAP models). */
    const RecoveryPolicy *policy() const { return policy_; }

    /** Non-destructive WPQ snapshot (crash-state permuter). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    wpqSnapshot() const
    {
        return wpq.entries();
    }

    /** The media backend this controller drains into. */
    const MediaModel &mediaModel() const { return *mediaModel_; }

    unsigned id() const { return id_; }

  private:
    /** Enqueue a media write, waiting out a full WPQ if necessary. */
    void enqueueWrite(std::uint64_t line, std::uint64_t value,
                      std::uint64_t extra_latency,
                      std::function<void()> on_inserted);

    /** Start media writes on any idle banks. */
    void tryIssueBanks();

    /** Admit overflow writes into freed WPQ slots. */
    void admitOverflow();

    /**
     * A (per-MC, aggregate "mc.*") counter pair. Resolved once at
     * construction: the per-event path must not pay two string
     * concatenations and two map walks per statistic.
     */
    class StatPair
    {
      public:
        StatPair(StatSet &stats, const std::string &prefix,
                 const char *name)
            : mc(&stats.counter(prefix + name)),
              agg(&stats.counter(std::string("mc.") + name))
        {
        }

        void
        inc(std::uint64_t delta = 1)
        {
            *mc += delta;
            *agg += delta;
        }

      private:
        std::uint64_t *mc;
        std::uint64_t *agg;
    };

    unsigned id_;
    const SimConfig &cfg;
    EventQueue &eq;
    NvmContents &media;
    StatSet &stats;
    RecoveryPolicy *policy_ = nullptr;
    std::unique_ptr<MediaModel> mediaModel_; //!< per-MC timing + bw cap

    Wpq wpq;
    XpBuffer xpBuffer;
    unsigned busyBanks = 0;
    bool drainCheckScheduled = false;

    /** Writes waiting for WPQ space, in arrival order. */
    struct OverflowWrite
    {
        std::uint64_t line;
        std::uint64_t value;
        std::uint64_t extraLatency;
        std::function<void()> onInserted;
    };
    std::deque<OverflowWrite> overflow;

    bool crashed = false;
    std::string statPrefix;

    StatPair stFlushesReceived;
    StatPair stEarlyFlushesReceived;
    StatPair stSuppressedWrites;
    StatPair stUndoReads;
    StatPair stXpHits;
    StatPair stXpMisses;
    StatPair stPmReads;
    StatPair stDelaysCreated;
    StatPair stNacksSent;
    StatPair stCommitsReceived;
    StatPair stDelayWritesReleased;
    StatPair stWpqCoalesced;
    StatPair stWpqFullStalls;
    StatPair stPmWrites;
    StatPair stBytesWritten;
    StatPair stBankBusyTicks;
    StatPair stBwQueueDelayTicks;
    StatPair stAdrDrainWrites;
    StatPair stUndoRewindWrites;
};

} // namespace asap

#endif // ASAP_MEM_MEMORY_CONTROLLER_HH
