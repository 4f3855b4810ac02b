/**
 * @file
 * Statistics collection.
 *
 * Mirrors the gem5 stats the paper's artifact exports (Table VI):
 * named counters plus sampled distributions (used for the occupancy
 * averages and 99th percentiles of Figure 11).
 */

#ifndef ASAP_SIM_STATS_HH
#define ASAP_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace asap
{

/**
 * A sampled distribution supporting mean, max and percentile queries.
 *
 * Samples are accumulated into fixed integer buckets, so percentile
 * queries are exact for the small-valued occupancy series we record
 * (buffer occupancies are bounded by buffer capacity).
 */
class Distribution
{
  public:
    /** @param max_value largest sample value that can be recorded */
    explicit Distribution(std::uint64_t max_value = 256);

    /** Record one sample; values beyond the bound are clamped. */
    void sample(std::uint64_t value, std::uint64_t weight = 1);

    /** Number of samples recorded. */
    std::uint64_t count() const { return total; }

    /** Arithmetic mean of the samples (0 if empty). */
    double mean() const;

    /** Largest sample seen (0 if empty). */
    std::uint64_t max() const { return maxSeen; }

    /**
     * Value at percentile @p pct (e.g.\ 99.0).
     * @return smallest value v such that pct% of samples are <= v
     */
    std::uint64_t percentile(double pct) const;

    /** Discard all samples. */
    void reset();

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t total = 0;
    std::uint64_t weightedSum = 0;
    std::uint64_t maxSeen = 0;
};

/**
 * A log-bucketed histogram for wide-range latency samples.
 *
 * The linear Distribution above is exact but needs one bucket per
 * value — fine for buffer occupancies bounded by capacity, useless
 * for persist latencies spanning five orders of magnitude. This
 * variant buckets by magnitude: 16 linear sub-buckets per power of
 * two, so any sample lands in a bucket whose width is at most 1/16 of
 * its value (<= 6.25% relative error on percentile queries) while the
 * whole 64-bit range fits in ~1 k buckets. percentile() returns the
 * lower bound of the answering bucket, so reported tails never
 * overstate the truth.
 */
class LogHistogram
{
  public:
    /** Record one sample. */
    void sample(std::uint64_t value);

    /** Number of samples recorded. */
    std::uint64_t count() const { return total; }

    /** Arithmetic mean of the samples (0 if empty). */
    double mean() const;

    /** Largest sample seen, exactly (0 if empty). */
    std::uint64_t max() const { return maxSeen; }

    /**
     * Value at percentile @p pct (e.g.\ 99.9): the lower bound of the
     * smallest bucket b such that pct% of samples fall in buckets
     * <= b. Within 6.25% (one sub-bucket) of the exact answer.
     */
    std::uint64_t percentile(double pct) const;

    /** Discard all samples. */
    void reset();

    /** Bucket index of @p value (exposed for tests). */
    static unsigned bucketOf(std::uint64_t value);

    /** Smallest value mapping to bucket @p idx (exposed for tests). */
    static std::uint64_t bucketFloor(unsigned idx);

  private:
    /** 16 sub-buckets per binade: values < 16 map 1:1, and 60 full
     *  binades cover the rest of the 64-bit range. */
    static constexpr unsigned kSubBits = 4;
    static constexpr unsigned kSub = 1u << kSubBits;
    static constexpr unsigned kBuckets = kSub + (64 - kSubBits) * kSub;

    std::vector<std::uint64_t> buckets; //!< lazily sized to kBuckets
    std::uint64_t total = 0;
    std::uint64_t sum = 0;
    std::uint64_t maxSeen = 0;
};

/**
 * Flat registry of named statistics for one simulated system.
 *
 * Components increment counters by name; the harness walks the
 * registry to print gem5-style "stats.txt" output and the benches read
 * specific names (see Table VI in the paper).
 */
class StatSet
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        counters[name] += delta;
    }

    /** Set counter @p name to @p value. */
    void
    set(const std::string &name, std::uint64_t value)
    {
        counters[name] = value;
    }

    /** Raise counter @p name to at least @p value. */
    void
    maxTo(const std::string &name, std::uint64_t value)
    {
        auto &slot = counters[name];
        if (value > slot)
            slot = value;
    }

    /**
     * Handle to counter @p name (created at zero). std::map node
     * references are stable, so components fetch their hot counters
     * once at construction and bump through the reference instead of
     * paying a string compare chain per event. Valid for the StatSet's
     * lifetime.
     */
    std::uint64_t &
    counter(const std::string &name)
    {
        return counters[name];
    }

    /** Read counter @p name (0 if never touched). */
    std::uint64_t get(const std::string &name) const;

    /** Access (creating) the distribution @p name. */
    Distribution &dist(const std::string &name,
                       std::uint64_t max_value = 256);

    /** True if a distribution with this name exists. */
    bool hasDist(const std::string &name) const;

    /**
     * Access (creating) the log-bucketed histogram @p name. Like
     * counter(), map nodes are stable: components fetch the reference
     * once at construction and sample through it.
     */
    LogHistogram &logHist(const std::string &name);

    /** True if a log histogram with this name exists. */
    bool hasLogHist(const std::string &name) const;

    /** Read-only view of all log histograms. */
    const std::map<std::string, LogHistogram> &
    allLogHists() const
    {
        return logHists;
    }

    /** Read-only view of all counters. */
    const std::map<std::string, std::uint64_t> &
    allCounters() const
    {
        return counters;
    }

    /** Read-only view of all distributions. */
    const std::map<std::string, Distribution> &
    allDists() const
    {
        return dists;
    }

    /** Render all stats as a gem5-style text block. */
    std::string dump() const;

  private:
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Distribution> dists;
    std::map<std::string, LogHistogram> logHists;
};

} // namespace asap

#endif // ASAP_SIM_STATS_HH
