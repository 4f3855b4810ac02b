/**
 * @file
 * Statistics and correctness bookkeeping of the repository benchmark:
 * percentiles with their sample counts, per-job pass accounting and
 * result fingerprints. Header-only and free of simulator types so the
 * benchmark's own tests exercise exactly what the benchmark reports.
 */

#ifndef ASAP_PERFBENCH_METRICS_HH
#define ASAP_PERFBENCH_METRICS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/**
 * Percentile @p q (0..100) of @p xs, linearly interpolated between the
 * two closest ranks (numpy's default). 0 for an empty sample.
 */
inline double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = std::clamp(q, 0.0, 100.0) / 100.0 *
                       static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

/** Median of @p xs (0 for an empty sample). */
inline double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

/** A percentile together with the sample it was read from. */
struct Tail
{
    double value = 0.0;
    std::size_t samples = 0; //!< sample size
    std::size_t beyond = 0;  //!< samples strictly above value
};

/** Percentile @p q of @p xs with its sample count and the number of
 *  samples beyond it (a tail needs ten or more to be trusted). */
inline Tail
tail(const std::vector<double> &xs, double q)
{
    Tail t;
    t.value = percentile(xs, q);
    t.samples = xs.size();
    t.beyond = static_cast<std::size_t>(
        std::count_if(xs.begin(), xs.end(),
                      [&](double x) { return x > t.value; }));
    return t;
}

/** FNV-1a over 64-bit words: a job's deterministic result digest. */
class Fingerprint
{
  public:
    Fingerprint &
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (word >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
        return *this;
    }

    Fingerprint &
    add(const std::string &s)
    {
        add(s.size());
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ull;
        }
        return *this;
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Success accounting over repeated passes of one job list. The first
 * fingerprint recorded for a job is its reference; an execution fails
 * when its own check failed or its fingerprint differs from the
 * reference.
 */
class PassTally
{
  public:
    explicit PassTally(std::size_t jobs)
        : ref_(jobs, 0), seen_(jobs, false)
    {
    }

    /** Record one execution of job @p job. @return true on success. */
    bool
    record(std::size_t job, std::uint64_t fp, bool ok)
    {
        ++attempted_;
        if (!seen_[job]) {
            seen_[job] = true;
            ref_[job] = fp;
        } else if (fp != ref_[job]) {
            ok = false;
        }
        if (!ok)
            ++failed_;
        return ok;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Successful / attempted executions (1 when nothing ran). */
    double
    passFrac() const
    {
        return attempted_ == 0
                   ? 1.0
                   : static_cast<double>(attempted_ - failed_) /
                         static_cast<double>(attempted_);
    }

    /** Reference fingerprint of job @p job (0 before it ran). */
    std::uint64_t reference(std::size_t job) const { return ref_[job]; }

    /** Digest of every reference fingerprint, in job order. */
    std::uint64_t
    digest() const
    {
        Fingerprint f;
        for (std::uint64_t r : ref_)
            f.add(r);
        return f.value();
    }

  private:
    std::vector<std::uint64_t> ref_;
    std::vector<bool> seen_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // ASAP_PERFBENCH_METRICS_HH
