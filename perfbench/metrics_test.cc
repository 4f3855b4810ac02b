/**
 * @file
 * Tests of the benchmark's own statistics: percentiles with sample
 * counts, and pass_frac counting over repeated passes.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "metrics.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testPercentile()
{
    check(percentile({}, 50) == 0.0, "empty sample reads 0");
    check(near(percentile({7.0}, 90), 7.0), "single sample");
    // Same convention as numpy.percentile / statistics 'inclusive'.
    check(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
    check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
    check(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9.1),
          "p90 interpolates between ranks");
    check(near(percentile({5, 1}, 0), 1.0) &&
              near(percentile({5, 1}, 100), 5.0),
          "p0 and p100 are the extremes");
}

void
testTail()
{
    std::vector<double> xs;
    for (int i = 1; i <= 200; ++i)
        xs.push_back(i);
    const Tail t = tail(xs, 90);
    check(near(t.value, 180.1), "p90 of 1..200");
    check(t.samples == 200, "tail records its sample count");
    check(t.beyond == 20, "20 of 200 samples lie beyond p90");

    const Tail small = tail({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90);
    check(small.samples == 10 && small.beyond == 1,
          "p90 of ten samples rests on one sample");
}

void
testPassTally()
{
    PassTally t(3);
    // Pass 1 sets the references; job 2 fails its own check.
    check(t.record(0, 11, true), "first pass, job 0");
    check(t.record(1, 22, true), "first pass, job 1");
    check(!t.record(2, 33, false), "own check failure counts");
    // Pass 2: job 1 drifts from its reference.
    check(t.record(0, 11, true), "second pass, job 0 matches");
    check(!t.record(1, 23, true), "fingerprint mismatch counts");
    check(t.record(2, 33, true), "second pass, job 2 recovers");
    check(t.attempted() == 6, "attempted counts every execution");
    check(t.failed() == 2, "failed counts both kinds");
    check(near(t.passFrac(), 4.0 / 6.0), "pass_frac = ok / attempted");
    check(t.reference(1) == 22, "reference is the first fingerprint");

    PassTally same(3), other(3);
    for (std::size_t i = 0; i < 3; ++i) {
        same.record(i, 100 + i, true);
        other.record(i, i == 2 ? 7 : 100 + i, true);
    }
    check(same.digest() != other.digest(), "digest sees every job");
    check(near(PassTally(0).passFrac(), 1.0), "empty tally passes");
}

void
testFingerprint()
{
    Fingerprint a, b, c;
    a.add(1).add(2);
    b.add(2).add(1);
    c.add(1).add(2);
    check(a.value() != b.value(), "fingerprint is order sensitive");
    check(a.value() == c.value(), "fingerprint is deterministic");
    check(Fingerprint().add("ab").value() !=
              Fingerprint().add("a").add("b").value(),
          "strings are length-prefixed");
}

} // namespace

int
main()
{
    testPercentile();
    testTail();
    testPassTally();
    testFingerprint();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return EXIT_FAILURE;
    }
    std::printf("metrics_test: all checks passed\n");
    return EXIT_SUCCESS;
}
