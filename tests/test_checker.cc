/**
 * @file
 * Unit tests for the crash-consistency checker itself: it must accept
 * legal post-crash states and reject each class of violation the
 * Section VI theorems rule out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <unordered_set>

#include "harness/system.hh"
#include "mem/nvm_contents.hh"
#include "recovery/checker.hh"
#include "recovery/run_log.hh"
#include "workloads/registry.hh"

namespace asap
{
namespace
{

struct CheckerFixture : public ::testing::Test
{
    RunLog log;
    NvmContents nvm;
    std::vector<std::uint64_t> committed{0, 0};

    /**
     * Every scenario doubles as a CheckScope conformance case: the
     * delta-check verdict must agree exactly with the full checker,
     * both with every logged line variable (the all-delta extreme)
     * and with none (the all-static extreme).
     */
    CheckResult
    check()
    {
        const CheckResult full =
            checkCrashConsistency(log, nvm, committed);

        auto index = std::make_shared<const CheckerIndex>(log);
        std::vector<std::uint64_t> lines;
        std::unordered_set<std::uint64_t> seen;
        for (const RunLog::StoreRecord &s : log.allStores()) {
            if (seen.insert(s.line).second)
                lines.push_back(s.line);
        }
        CheckScope allVar(index, nvm, committed, lines);
        if (allVar.usable()) {
            std::vector<std::uint64_t> values;
            values.reserve(lines.size());
            for (std::uint64_t line : lines)
                values.push_back(nvm.read(line));
            CheckScope::Scratch scratch;
            EXPECT_EQ(allVar.consistent(values, scratch), full.ok)
                << "all-variable CheckScope disagrees: "
                << full.message;
        }
        CheckScope allFixed(index, nvm, committed, {});
        if (allFixed.usable()) {
            const std::vector<std::uint64_t> none;
            CheckScope::Scratch scratch;
            EXPECT_EQ(allFixed.consistent(none, scratch), full.ok)
                << "all-fixed CheckScope disagrees: " << full.message;
        }
        return full;
    }
};

TEST_F(CheckerFixture, EmptyRunIsConsistent)
{
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, AllWritesSurvivedIsConsistent)
{
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 2, 101, 22);
    nvm.write(100, 11);
    nvm.write(101, 22);
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, NothingSurvivedIsConsistent)
{
    log.recordStore(0, 1, 100, 11);
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, PrefixSurvivalIsConsistent)
{
    // Epoch 1 survived, epoch 2 did not: legal.
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 2, 101, 22);
    nvm.write(100, 11);
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, LaterEpochWithoutEarlierIsViolation)
{
    // Epoch 2's write survived while epoch 1's (same thread) is lost.
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 2, 101, 22);
    nvm.write(101, 22);
    CheckResult r = check();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("ancestor"), std::string::npos);
}

TEST_F(CheckerFixture, CrossThreadDependencyViolation)
{
    // Thread 1 epoch 5 depends on thread 0 epoch 1; the dependent's
    // write survived, the source's did not.
    log.recordStore(0, 1, 100, 11);
    log.recordStore(1, 5, 200, 55);
    log.recordEdge(1, 5, 0, 1);
    nvm.write(200, 55);
    EXPECT_FALSE(check().ok);
    nvm.write(100, 11);
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, TransitiveDependencyViolation)
{
    // t2.e3 -> t1.e2 -> t0.e1; only the deepest write is lost.
    log.recordStore(0, 1, 100, 1);
    log.recordStore(1, 2, 101, 2);
    log.recordStore(2, 3, 102, 3);
    log.recordEdge(1, 2, 0, 1);
    log.recordEdge(2, 3, 1, 2);
    committed = {0, 0, 0};
    nvm.write(102, 3);
    nvm.write(101, 2);
    EXPECT_FALSE(check().ok) << "t0.e1 write missing";
    nvm.write(100, 1);
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, CommittedEpochMustBeDurable)
{
    log.recordStore(0, 1, 100, 11);
    committed[0] = 1; // hardware reported epoch 1 committed
    CheckResult r = check();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("committed"), std::string::npos);
    nvm.write(100, 11);
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, OverwrittenCommittedWriteIsFine)
{
    // Epoch 1's write was overwritten by epoch 2's surviving write:
    // epoch 1 is still "visible" (superseded in line order).
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 2, 100, 22);
    committed[0] = 2;
    nvm.write(100, 22);
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, OlderValueSurvivingUnderCommitIsViolation)
{
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 2, 100, 22);
    committed[0] = 2;
    nvm.write(100, 11); // rolled back past a committed epoch
    EXPECT_FALSE(check().ok);
}

TEST_F(CheckerFixture, AlienValueDetected)
{
    log.recordStore(0, 1, 100, 11);
    nvm.write(100, 999); // never written by any store
    CheckResult r = check();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("alien"), std::string::npos);
}

TEST_F(CheckerFixture, ValueFromWrongLineDetected)
{
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 1, 101, 22);
    nvm.write(100, 22); // token 22 belongs to line 101
    EXPECT_FALSE(check().ok);
}

TEST_F(CheckerFixture, PartialEpochSurvivalIsLegal)
{
    // Epoch 1 wrote two lines; only one survived. Legal: within an
    // epoch, writes are unordered.
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 1, 101, 22);
    nvm.write(100, 11);
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, IntraEpochLineOrderViolation)
{
    // Two writes to one line in one epoch: only the older may not
    // survive while the epoch is an ancestor of a survivor.
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 1, 100, 12);
    log.recordStore(0, 2, 101, 33);
    nvm.write(100, 11); // epoch 1's last write (12) lost...
    nvm.write(101, 33); // ...but epoch 2 survived
    EXPECT_FALSE(check().ok);
}

TEST_F(CheckerFixture, DuplicateTokensRejected)
{
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 2, 100, 11);
    CheckResult r = check();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("duplicate"), std::string::npos);
}

// --- violation classes the crash-state permuter (src/permute/) can
// --- synthesize; each must be rejected independently of the permuter.

TEST_F(CheckerFixture, PartialUndoRewindViolation)
{
    // A crash-time rewind that applied only part of the Recovery
    // Table: speculative epoch 1's write on line 100 was rolled back
    // to the initial value, but its dependent epoch 2 kept its
    // speculative value on line 101 — the survivor's ancestor is no
    // longer durable.
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 2, 101, 22);
    nvm.write(100, 0); // rewound (initial value)
    nvm.write(101, 22); // speculative survivor
    CheckResult r = check();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("ancestor"), std::string::npos);
    // Fully rewinding (both lines) is legal again.
    nvm.write(101, 0);
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, OutOfOrderWpqDrainViolation)
{
    // A WPQ drain that let epoch 3's write reach media while dropping
    // committed epoch 2's still-queued write: the later epoch
    // survived an earlier committed one.
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 2, 101, 22);
    log.recordStore(0, 3, 102, 33);
    committed[0] = 2;
    nvm.write(100, 11);
    nvm.write(102, 33); // drained out of order
    CheckResult r = check();
    EXPECT_FALSE(r.ok);
    // Both check classes fire on this state; either message proves
    // the drain reorder was caught.
    const bool lostCommit =
        r.message.find("committed") != std::string::npos;
    const bool badAncestor =
        r.message.find("ancestor") != std::string::npos;
    EXPECT_TRUE(lostCommit || badAncestor) << r.message;
    // The in-order drain of the same three writes is legal.
    nvm.write(101, 22);
    EXPECT_TRUE(check().ok);
}

TEST_F(CheckerFixture, TornLineValueIsAlien)
{
    // A value matching no logged store token on a logged line — e.g.
    // a torn combination of two writes — is flagged as alien rather
    // than attributed to either epoch.
    log.recordStore(0, 1, 100, 11);
    log.recordStore(0, 2, 100, 22);
    nvm.write(100, 33); // neither token
    CheckResult r = check();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("alien"), std::string::npos);
}

// --- layout independence: the verdict is a function of the log's
// --- records, not of the order they were appended in.

TEST(CheckerOrder, ShuffledLogGivesIdenticalVerdicts)
{
    // A real crashed run: thousands of stores, cross-thread edges.
    SimConfig cfg;
    cfg.model = ModelKind::Asap;
    cfg.persistency = PersistencyModel::Release;
    cfg.numCores = 4;
    WorkloadParams p;
    p.opsPerThread = 60;
    p.seed = 7;
    System sys(cfg, /*keep_run_log=*/true);
    sys.loadTrace(buildTrace("queue", cfg.numCores, p));
    sys.crashAt(30000);
    const RunLog &log = sys.runLog();
    const std::vector<std::uint64_t> committed = sys.committedUpTo();
    ASSERT_GT(log.allStores().size(), 100u);
    ASSERT_FALSE(log.allEdges().empty());

    // Same records (same seqs), appended in a shuffled order.
    std::mt19937_64 rng(42);
    std::vector<RunLog::StoreRecord> stores = log.allStores();
    std::vector<RunLog::DepEdge> edges = log.allEdges();
    std::shuffle(stores.begin(), stores.end(), rng);
    std::shuffle(edges.begin(), edges.end(), rng);
    RunLog shuffled;
    for (const RunLog::StoreRecord &s : stores)
        shuffled.appendStore(s);
    for (const RunLog::DepEdge &e : edges)
        shuffled.recordEdge(e.thread, e.epoch, e.srcThread, e.srcEpoch);

    const CheckerIndex a(log);
    const CheckerIndex b(shuffled);

    // Images with many simultaneous violations, where the choice of
    // the reported one is what could depend on layout: every k-th
    // logged line lost (or rolled back to its first write), and one
    // alien value on top.
    std::vector<std::uint64_t> lines;
    std::unordered_map<std::uint64_t, std::uint64_t> firstToken;
    for (const RunLog::StoreRecord &s : log.allStores()) {
        if (firstToken.emplace(s.line, s.value).second)
            lines.push_back(s.line);
    }
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> images(1);
    for (std::size_t k : {2u, 3u, 5u, 7u}) {
        std::unordered_map<std::uint64_t, std::uint64_t> lost, old;
        for (std::size_t i = 0; i < lines.size(); i += k) {
            lost[lines[i]] = 0;
            old[lines[i]] = firstToken[lines[i]];
        }
        images.push_back(lost);
        images.push_back(old);
    }
    images.push_back(images[1]);
    images.back()[lines.back()] = ~0ULL; // alien
    images.back()[lines.front()] = ~1ULL; // alien

    unsigned failing = 0;
    for (const auto &overlay : images) {
        const NvmView view(sys.nvm(), overlay);
        const CheckResult ra = a.check(view, committed);
        const CheckResult rb = b.check(view, committed);
        EXPECT_EQ(ra.ok, rb.ok);
        EXPECT_EQ(ra.message, rb.message);
        failing += !ra.ok;
    }
    EXPECT_GE(failing, 5u) << "images should exercise violations";
}

} // namespace
} // namespace asap
