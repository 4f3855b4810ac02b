/**
 * @file
 * Interface between a memory controller and a speculation/recovery
 * policy.
 *
 * In the ASAP model each controller hosts a Recovery Table (the
 * paper's contribution; implemented in src/core). Baseline, HOPS and
 * eADR controllers have no policy: every incoming flush simply writes
 * memory. The controller owns all timing; the policy owns the Table I
 * decision matrix and the undo/delay bookkeeping.
 */

#ifndef ASAP_MEM_RECOVERY_POLICY_HH
#define ASAP_MEM_RECOVERY_POLICY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/packets.hh"

namespace asap
{

/** Decision matrix outcomes for an incoming flush (paper Table I). */
enum class FlushAction
{
    WriteMemory,        //!< normal path: persist the value
    SuppressWrite,      //!< safe flush absorbed into an undo record
    CreateUndoAndWrite, //!< snapshot old value, then speculatively write
    CreateDelay,        //!< park the value until its epoch commits
    Nack,               //!< recovery table full: reject the early flush
};

/** Callback used by policies to emit media writes through the MC. */
using WriteOutFn =
    std::function<void(std::uint64_t line, std::uint64_t value)>;

/**
 * Read-only views of a policy's records, exported for the crash-state
 * permuter (src/permute). A policy that keeps no records exports
 * nothing.
 */
struct UndoRecordView
{
    std::uint64_t line;
    std::uint64_t value;  //!< safe value restored on crash rewind
    std::uint16_t thread;
    std::uint64_t epoch;
};

struct DelayRecordView
{
    std::uint64_t line;
    std::uint64_t value;  //!< parked early-flush value
    std::uint16_t thread;
    std::uint64_t epoch;
};

/** Per-controller speculation policy (ASAP's Recovery Table). */
class RecoveryPolicy
{
  public:
    virtual ~RecoveryPolicy() = default;

    /**
     * Classify an incoming flush.
     *
     * Called exactly once per arriving flush with the line's current
     * durable value (WPQ pending value if any, else media contents);
     * for CreateUndoAndWrite the policy snapshots that value as the
     * undo record before the controller issues the speculative write.
     */
    virtual FlushAction onFlush(const FlushPacket &pkt,
                                std::uint64_t current_value) = 0;

    /**
     * An epoch committed: drop its undo records and release its delay
     * records, emitting any resulting media writes through @p write_out.
     */
    virtual void onCommit(std::uint16_t thread, std::uint64_t epoch,
                          const WriteOutFn &write_out) = 0;

    /**
     * Power failure: emit every undo value so the controller can
     * rewind speculative updates (delay records are discarded).
     */
    virtual void onCrash(const WriteOutFn &write_out) = 0;

    /** Records currently held (undo + delay), for occupancy stats. */
    virtual std::size_t occupancy() const = 0;

    /**
     * Export the current undo/delay records (crash-state permuter).
     * Deterministic order: implementations must sort undos by line.
     * Record-free policies keep the default no-op.
     */
    virtual void
    exportRecords(std::vector<UndoRecordView> &undos,
                  std::vector<DelayRecordView> &delays) const
    {
        (void)undos;
        (void)delays;
    }
};

} // namespace asap

#endif // ASAP_MEM_RECOVERY_POLICY_HH
