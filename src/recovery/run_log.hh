/**
 * @file
 * Run log: the ground truth the recovery checker needs.
 *
 * While a simulation runs, the cores append every PM store (with the
 * epoch it joined) and every cross-thread epoch dependency edge. After
 * an injected crash the checker rebuilds the epoch dependency DAG from
 * this log and verifies the Section VI theorems against the surviving
 * NVM contents.
 */

#ifndef ASAP_RECOVERY_RUN_LOG_HH
#define ASAP_RECOVERY_RUN_LOG_HH

#include <cstdint>
#include <vector>

namespace asap
{

/** Identifies one epoch globally. */
struct EpochId
{
    std::uint16_t thread = 0;
    std::uint64_t ts = 0;

    bool
    operator==(const EpochId &o) const
    {
        return thread == o.thread && ts == o.ts;
    }
};

/** Append-only record of a run's persist-relevant events. */
class RunLog
{
  public:
    /** One PM store as the core retired it. */
    struct StoreRecord
    {
        std::uint64_t seq;      //!< global retirement order
        std::uint16_t thread;
        std::uint64_t epoch;    //!< epoch timestamp on that thread
        std::uint64_t line;
        std::uint64_t value;    //!< unique token
    };

    /** Cross-thread dependency: (thread, epoch) -> (src, srcEpoch). */
    struct DepEdge
    {
        std::uint16_t thread;
        std::uint64_t epoch;
        std::uint16_t srcThread;
        std::uint64_t srcEpoch;
    };

    void
    recordStore(std::uint16_t thread, std::uint64_t epoch,
                std::uint64_t line, std::uint64_t value)
    {
        stores.push_back(StoreRecord{nextSeq++, thread, epoch, line,
                                     value});
    }

    /** Append a store recorded elsewhere, keeping its seq (rebuilds
     *  a log from its records, in any order). */
    void
    appendStore(const StoreRecord &s)
    {
        stores.push_back(s);
        if (s.seq >= nextSeq)
            nextSeq = s.seq + 1;
    }

    void
    recordEdge(std::uint16_t thread, std::uint64_t epoch,
               std::uint16_t src_thread, std::uint64_t src_epoch)
    {
        edges.push_back(DepEdge{thread, epoch, src_thread, src_epoch});
    }

    const std::vector<StoreRecord> &allStores() const { return stores; }
    const std::vector<DepEdge> &allEdges() const { return edges; }

    void
    clear()
    {
        stores.clear();
        edges.clear();
        nextSeq = 0;
    }

  private:
    std::uint64_t nextSeq = 0;
    std::vector<StoreRecord> stores;
    std::vector<DepEdge> edges;
};

} // namespace asap

#endif // ASAP_RECOVERY_RUN_LOG_HH
