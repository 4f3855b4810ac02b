/**
 * @file
 * Cooperative job leases over a shared directory.
 *
 * The claim protocol that lets shards on different hosts agree who
 * simulates a job, using nothing but the shared cache filesystem:
 *
 *  - acquire: create `<key>.lease` with O_CREAT|O_EXCL — the POSIX
 *    primitive that is atomic even on NFS-style shared mounts; exactly
 *    one contender succeeds.
 *  - heartbeat: a background thread refreshes the mtime of every held
 *    lease, so liveness is observable from any host.
 *  - reclaim: a lease whose mtime is older than the TTL belongs to a
 *    crashed shard. Stealing is two steps — atomically rename the
 *    stale file away (one winner), then re-acquire with O_EXCL — so
 *    two reclaimers can never both think they own the job.
 *  - release: remove the file (after the result is in the cache, so
 *    observers transition held → done, never held → missing → done).
 *
 * Losing a race is never an error: the job is simply someone else's,
 * and its result will appear in the shared ResultCache.
 */

#ifndef ASAP_DIST_LEASE_HH
#define ASAP_DIST_LEASE_HH

#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <condition_variable>

namespace asap
{

/** Tuning for one lease domain (normally one cache directory). */
struct LeaseConfig
{
    std::string dir;              //!< shared directory for lease files
    double ttlSeconds = 60.0;     //!< staleness threshold for reclaim
    double heartbeatSeconds = 10.0; //!< held-lease mtime refresh period
};

/** Acquire/heartbeat/release over one lease directory. */
class LeaseManager
{
  public:
    explicit LeaseManager(LeaseConfig cfg);

    /** Stops the heartbeat and releases every still-held lease. */
    ~LeaseManager();

    LeaseManager(const LeaseManager &) = delete;
    LeaseManager &operator=(const LeaseManager &) = delete;

    enum class Acquire
    {
        Acquired, //!< we own the job; run it, then release()
        Busy,     //!< a live shard owns it; its result will appear
    };

    /** Try to take the lease for @p key (stealing it if stale). */
    Acquire tryAcquire(const std::string &key);

    /** Drop the lease for @p key (call after the cache insert). */
    void release(const std::string &key);

    /** Leases currently held by this manager. */
    std::size_t heldCount() const;

    /** Unlink every lease file registered in the emergency slot
     *  table. Async-signal-safe (unlink + atomics only); this is the
     *  body of the SIGINT/SIGTERM handler, exposed so tests and
     *  embedders can invoke it directly. Returns the number of lease
     *  files released. */
    static std::size_t emergencyReleaseAll();

    /** Lease files currently registered for emergency release. */
    static std::size_t emergencyRegisteredCount();

    /** The lease file path for @p key. */
    std::string leasePath(const std::string &key) const;

    /** True if the lease file at @p path is younger than the TTL. */
    bool isFresh(const std::string &path) const;

  private:
    void heartbeatLoop();

    LeaseConfig cfg;
    mutable std::mutex mu;
    std::condition_variable stopCv;
    std::set<std::string> held; //!< lease paths to heartbeat
    bool stopping = false;
    std::thread heartbeat;
};

/**
 * Install a SIGINT/SIGTERM handler that unlinks every lease file this
 * process currently holds (via LeaseManager::emergencyReleaseAll),
 * restores the default disposition, and re-raises — so an interrupted
 * batch bench dies with the right signal status but never strands
 * leases that would stall other shards for a full TTL. Idempotent;
 * call from single-threaded startup. Embedders that manage signals
 * themselves skip this and rely on graceful LeaseManager teardown
 * instead.
 */
void installLeaseSignalHandler();

} // namespace asap

#endif // ASAP_DIST_LEASE_HH
