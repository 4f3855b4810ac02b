#include "sim/stats.hh"

#include <algorithm>
#include <sstream>

namespace asap
{

Distribution::Distribution(std::uint64_t max_value)
    : buckets(max_value + 1, 0)
{
}

void
Distribution::sample(std::uint64_t value, std::uint64_t weight)
{
    std::uint64_t v = std::min<std::uint64_t>(value, buckets.size() - 1);
    buckets[v] += weight;
    total += weight;
    weightedSum += value * weight;
    maxSeen = std::max(maxSeen, value);
}

double
Distribution::mean() const
{
    if (total == 0)
        return 0.0;
    return static_cast<double>(weightedSum) / static_cast<double>(total);
}

std::uint64_t
Distribution::percentile(double pct) const
{
    if (total == 0)
        return 0;
    // Smallest v with cumulative count >= ceil(pct% of total).
    const double target_f = pct / 100.0 * static_cast<double>(total);
    std::uint64_t target = static_cast<std::uint64_t>(target_f);
    if (static_cast<double>(target) < target_f)
        ++target;
    if (target == 0)
        target = 1;
    std::uint64_t cum = 0;
    for (std::size_t v = 0; v < buckets.size(); ++v) {
        cum += buckets[v];
        if (cum >= target)
            return v;
    }
    return buckets.size() - 1;
}

void
Distribution::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    total = 0;
    weightedSum = 0;
    maxSeen = 0;
}

unsigned
LogHistogram::bucketOf(std::uint64_t value)
{
    if (value < kSub)
        return static_cast<unsigned>(value);
    // msb >= kSubBits: binade index, then the top kSubBits bits below
    // the leading one pick the sub-bucket.
    unsigned msb = 63;
    while (!(value >> msb))
        --msb;
    const unsigned sub = static_cast<unsigned>(
        (value >> (msb - kSubBits)) & (kSub - 1));
    return (msb - kSubBits + 1) * kSub + sub;
}

std::uint64_t
LogHistogram::bucketFloor(unsigned idx)
{
    if (idx < kSub)
        return idx;
    const unsigned msb = idx / kSub + kSubBits - 1;
    const std::uint64_t sub = idx % kSub;
    return (std::uint64_t(1) << msb) | (sub << (msb - kSubBits));
}

void
LogHistogram::sample(std::uint64_t value)
{
    if (buckets.empty())
        buckets.assign(kBuckets, 0);
    ++buckets[bucketOf(value)];
    ++total;
    sum += value;
    if (value > maxSeen)
        maxSeen = value;
}

double
LogHistogram::mean() const
{
    if (total == 0)
        return 0.0;
    return static_cast<double>(sum) / static_cast<double>(total);
}

std::uint64_t
LogHistogram::percentile(double pct) const
{
    if (total == 0)
        return 0;
    const double target_f = pct / 100.0 * static_cast<double>(total);
    std::uint64_t target = static_cast<std::uint64_t>(target_f);
    if (static_cast<double>(target) < target_f)
        ++target;
    if (target == 0)
        target = 1;
    std::uint64_t cum = 0;
    for (unsigned idx = 0; idx < buckets.size(); ++idx) {
        cum += buckets[idx];
        if (cum >= target) {
            // The top bucket's floor can exceed the true max only by
            // construction of the bound; clamp to the exact max.
            return std::min(bucketFloor(idx), maxSeen);
        }
    }
    return maxSeen;
}

void
LogHistogram::reset()
{
    buckets.clear();
    total = 0;
    sum = 0;
    maxSeen = 0;
}

std::uint64_t
StatSet::get(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

Distribution &
StatSet::dist(const std::string &name, std::uint64_t max_value)
{
    auto it = dists.find(name);
    if (it == dists.end())
        it = dists.emplace(name, Distribution(max_value)).first;
    return it->second;
}

bool
StatSet::hasDist(const std::string &name) const
{
    return dists.count(name) != 0;
}

LogHistogram &
StatSet::logHist(const std::string &name)
{
    return logHists[name];
}

bool
StatSet::hasLogHist(const std::string &name) const
{
    return logHists.count(name) != 0;
}

std::string
StatSet::dump() const
{
    std::ostringstream os;
    for (const auto &[name, value] : counters)
        os << name << " " << value << "\n";
    for (const auto &[name, d] : dists) {
        os << name << "::samples " << d.count() << "\n";
        os << name << "::mean " << d.mean() << "\n";
        os << name << "::max " << d.max() << "\n";
        os << name << "::p99 " << d.percentile(99.0) << "\n";
    }
    for (const auto &[name, h] : logHists) {
        os << name << "::samples " << h.count() << "\n";
        os << name << "::mean " << h.mean() << "\n";
        os << name << "::max " << h.max() << "\n";
        os << name << "::p50 " << h.percentile(50.0) << "\n";
        os << name << "::p99 " << h.percentile(99.0) << "\n";
        os << name << "::p999 " << h.percentile(99.9) << "\n";
    }
    return os.str();
}

} // namespace asap
