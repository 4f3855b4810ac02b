/**
 * @file
 * Pluggable NVM media models.
 *
 * Every persist-path result in this reproduction used to be computed
 * against one hard-coded backend: the Optane-like Table II constants
 * in SimConfig. This subsystem puts the media behind an interface so
 * the same engine can ask whether ASAP's win over HOPS/baseline
 * survives on DRAM-like, CXL-attached or slower-than-Optane media.
 *
 * A MediaModel owns all media service timing:
 *  - read/write service latency (and therefore the read/write
 *    asymmetry of the backend),
 *  - per-bank write parallelism (how many line writes a controller
 *    drains concurrently),
 *  - a write-bandwidth cap modeled as queueing delay at bank issue
 *    (a line write that would exceed the cap waits for the media's
 *    internal pipeline to free up; the wait extends the issuing
 *    bank's occupancy),
 *  - the controller-buffer (XPBuffer) hit latency for undo-snapshot
 *    reads, and the volatile DRAM fill latency.
 *
 * Backends are named profiles in a registry. `paper-table2` is the
 * default and reproduces the seed constants (it reads the legacy
 * SimConfig knobs, so `pmWriteLatency=...`/`nvmBanks=...` overrides
 * keep working and every pre-media output is byte-identical). The
 * other profiles own their parameters; `media*` SimConfig knobs
 * override individual fields of any profile.
 */

#ifndef ASAP_MEDIA_MEDIA_HH
#define ASAP_MEDIA_MEDIA_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/ticks.hh"

namespace asap
{

/** Resolved timing parameters of one media backend. */
struct MediaParams
{
    std::string profile;    //!< registry name this was resolved from
    Tick readLatency = 0;   //!< full media read service
    Tick writeLatency = 0;  //!< media write service per line
    Tick hitLatency = 0;    //!< controller-buffer (XPBuffer) hit
    Tick dramFillLatency = 0; //!< volatile DRAM fill (non-PM lines)
    unsigned banks = 0;     //!< per-MC concurrent line writes
    /** Per-MC write bandwidth cap in GB/s; 0 = uncapped (bandwidth
     *  emerges from banks x writeLatency alone). */
    double writeGBps = 0.0;
};

/** Registry entry: a named profile and its one-line story. */
struct MediaProfileInfo
{
    std::string name;
    std::string description;
};

/** All registered media profiles, in presentation order. */
const std::vector<MediaProfileInfo> &allMediaProfiles();

/** True if @p name is a registered profile. */
bool isMediaProfile(const std::string &name);

/**
 * Resolve @p cfg's media profile to concrete parameters: profile
 * defaults first, then any `media*` SimConfig overrides on top.
 * Fatal on an unknown profile name.
 */
MediaParams resolveMediaParams(const SimConfig &cfg);

/**
 * Like resolveMediaParams, but honours cfg.mediaPerMc: when the
 * comma-separated list is non-empty, MC @p mcId resolves the profile
 * at list[mcId % len] (the `media*` override knobs still apply).
 * Fatal on an unknown name anywhere in the list.
 */
MediaParams resolveMediaParamsFor(const SimConfig &cfg, unsigned mcId);

/**
 * One memory controller's view of its media device. Stateful: the
 * bandwidth cap is enforced per instance, so every MC owns one.
 */
class MediaModel
{
  public:
    virtual ~MediaModel() = default;

    const MediaParams &params() const { return p_; }

    /** Full media read service (undo-snapshot miss, PM cache fill). */
    Tick readLatency() const { return p_.readLatency; }

    /** Controller-buffer hit service (undo read hits XPBuffer/WPQ). */
    Tick hitLatency() const { return p_.hitLatency; }

    /** Volatile DRAM fill latency (non-PM cache misses). */
    Tick dramFillLatency() const { return p_.dramFillLatency; }

    /** Concurrent line writes this media sustains per controller. */
    unsigned banks() const { return p_.banks; }

    /** Outcome of issuing one line write to the media. */
    struct WriteGrant
    {
        /** Total bank occupancy: queueing delay + write service. */
        Tick serviceLatency = 0;
        /** Portion spent waiting on the bandwidth cap (0 when the
         *  cap is disabled or the media pipeline was free). */
        Tick queueDelay = 0;
    };

    /**
     * Issue one @p bytes-byte write at time @p now. Deterministic:
     * the grant depends only on the issue history of this instance.
     */
    virtual WriteGrant startWrite(Tick now, unsigned bytes) = 0;

  protected:
    explicit MediaModel(MediaParams p) : p_(std::move(p)) {}

    MediaParams p_;
};

/** Build the media model @p cfg selects (fatal on unknown profile). */
std::unique_ptr<MediaModel> makeMediaModel(const SimConfig &cfg);

/** Build MC @p mcId's media model, honouring cfg.mediaPerMc. */
std::unique_ptr<MediaModel> makeMediaModelFor(const SimConfig &cfg,
                                              unsigned mcId);

} // namespace asap

#endif // ASAP_MEDIA_MEDIA_HH
