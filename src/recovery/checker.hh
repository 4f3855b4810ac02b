/**
 * @file
 * Crash-recovery consistency checker.
 *
 * The executable counterpart of Section VI's proofs. After a crash is
 * injected and the ADR domain drained, the checker rebuilds the epoch
 * dependency DAG from the run log (intra-thread order + cross-thread
 * edges) and verifies, against the surviving NVM contents:
 *
 *  1. *Prefix closure* (Theorem 2 / epoch ordering): for every line,
 *     the surviving value's epoch may only be preceded — in the DAG —
 *     by epochs whose own writes are fully visible. No write of a
 *     later epoch survives while an earlier epoch's write was lost.
 *  2. *Committed durability* (Lemma 1.1): every epoch the hardware
 *     reported committed is fully durable.
 *  3. *No alien values*: every surviving line value is either the
 *     initial value or a token some recorded store actually wrote to
 *     that line.
 *
 * The log-derived part of the check (per-line sorted write lists, the
 * store-token index, the epoch dependency graph) depends only on the
 * RunLog, not on the NVM state under test. CheckerIndex captures it as
 * a build-once structure so callers checking many states against one
 * log — the crash-state permuter above all — index once and pay only
 * the per-state phase per check. checkCrashConsistency stays as the
 * one-shot wrapper.
 */

#ifndef ASAP_RECOVERY_CHECKER_HH
#define ASAP_RECOVERY_CHECKER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/nvm_contents.hh"
#include "recovery/run_log.hh"

namespace asap
{

/** Verdict of a consistency check. */
struct CheckResult
{
    bool ok = true;
    std::string message; //!< first violation found (empty when ok)

    explicit operator bool() const { return ok; }
};

/**
 * A read-only view of post-crash NVM contents: the surviving media
 * state, optionally shadowed by a sparse overlay. The permuter checks
 * each enumerated state through an overlay holding only the lines a
 * record can change, instead of mutating (and reverting) the shared
 * NvmContents — which also makes concurrent checks safe: NvmContents
 * reads are const and each worker owns its overlay.
 */
class NvmView
{
  public:
    explicit NvmView(const NvmContents &base) : base_(&base) {}
    NvmView(const NvmContents &base,
            const std::unordered_map<std::uint64_t, std::uint64_t>
                &overlay)
        : base_(&base), overlay_(&overlay)
    {
    }

    /** Overlay value when present, else the underlying media value. */
    std::uint64_t
    read(std::uint64_t line) const
    {
        if (overlay_) {
            auto it = overlay_->find(line);
            if (it != overlay_->end())
                return it->second;
        }
        return base_->read(line);
    }

  private:
    const NvmContents *base_;
    const std::unordered_map<std::uint64_t, std::uint64_t> *overlay_ =
        nullptr;
};

/**
 * Build-once index of a RunLog for repeated consistency checks.
 *
 * Construction does every log-shaped part of the check and lays the
 * result out flat, on dense ids fixed at build time:
 *
 *  - lines are numbered in ascending address order, each with its
 *    writes in retirement (seq) order;
 *  - epochs are numbered in (thread, epoch) order, so one thread's
 *    epochs are a contiguous id range;
 *  - each epoch carries a span of (line id, last write index) pairs,
 *    ascending by line id, and a CSR parent list (the same-thread
 *    predecessor plus every cross-thread source, ascending, deduped);
 *  - one open-addressed table maps a store token to its (line id,
 *    write index), flagging duplicate tokens;
 *  - a topological order of the epochs, with a cycle flag, comes from
 *    the log alone.
 *
 * check() then runs only the state-shaped part — surviving-write
 * resolution and the prefix-closure / committed-durability walks —
 * against any NvmView, on per-thread scratch arrays (a survived-index
 * array and a generation-stamped visited array) reused across calls.
 * Check 1 walks surviving lines in ascending line order and Check 2
 * walks epochs in (thread, epoch) order, so the first violation
 * reported is a pure function of the log's contents and the image —
 * not of record append order or hash-table layout. check() is const;
 * one index may serve many threads concurrently.
 */
class CheckerIndex
{
  public:
    explicit CheckerIndex(const RunLog &log);

    /** Check one post-crash state against the indexed log. */
    CheckResult
    check(const NvmView &view,
          const std::vector<std::uint64_t> &committed_up_to) const;

  private:
    /** Marks "no such line" / an empty token-table slot. */
    static constexpr std::uint32_t kNoLine = ~std::uint32_t(0);

    /** Where a store token lives: (line id, index into its writes). */
    struct TokenPos
    {
        std::uint32_t line = kNoLine;
        std::uint32_t idx = 0;
    };

    /** An epoch's last write to one line. */
    struct Span
    {
        std::uint32_t line;
        std::uint32_t lastIdx;
    };

    /** Token position, or nullptr for a value no store wrote. */
    const TokenPos *findToken(std::uint64_t token) const;
    /** Dense id of a line address, or kNoLine when never written. */
    std::uint32_t lineIdOf(std::uint64_t addr) const;
    /** Epoch ids [first, last) of thread @p t (empty if unknown). */
    std::pair<std::uint32_t, std::uint32_t>
    threadEpochs(std::size_t t) const;

    std::size_t numLines() const { return lineAddr_.size(); }
    std::size_t numEpochs() const { return epochTs_.size(); }

    /** Line id -> address, ascending. */
    std::vector<std::uint64_t> lineAddr_;
    /** CSR: line id -> its writes in writeEpoch_, retirement order. */
    std::vector<std::uint32_t> writeBegin_;
    /** Writer epoch id of every write. */
    std::vector<std::uint32_t> writeEpoch_;

    /** Epoch id -> (thread, epoch timestamp). */
    std::vector<std::uint16_t> epochThread_;
    std::vector<std::uint64_t> epochTs_;
    /** Thread t's epoch ids are [threadBegin_[t], threadBegin_[t+1]). */
    std::vector<std::uint32_t> threadBegin_;
    /** CSR: epoch id -> direct parents. */
    std::vector<std::uint32_t> parentBegin_;
    std::vector<std::uint32_t> parents_;
    /** CSR: epoch id -> (line id, last write index) spans. */
    std::vector<std::uint32_t> spanBegin_;
    std::vector<Span> spans_;
    /** Epoch ids, parents before children (partial if cyclic_). */
    std::vector<std::uint32_t> topo_;
    bool cyclic_ = false;

    /** Open-addressed token table (power-of-two capacity). */
    std::vector<std::uint64_t> tokKeys_;
    std::vector<TokenPos> tokVals_;
    std::size_t tokMask_ = 0;

    /** Log defect found at build time (duplicate store token); every
     *  check() fails with it. */
    bool buildOk = true;
    std::string buildMessage;

    friend class CheckScope;
};

/**
 * Delta-check oracle for many states that differ from one base image
 * only on a known set of *variable lines* (the permuter's effect
 * table). Everything the checker derives from fixed lines is constant
 * across those states, so construction resolves it once, on the
 * index's own dense ids and topological order:
 *
 *  - base surviving-write indices and alien detection for every fixed
 *    line (a fixed-line violation fails every state: constant fail);
 *  - visibility of every epoch that writes no variable line;
 *  - per epoch, via one pass over the index's topological order,
 *    whether a non-visible fixed epoch is a strict ancestor
 *    (constant fail when a committed epoch or fixed surviving value
 *    depends on one) and the bitmask of *variable* epochs — those
 *    writing at least one variable line — among its strict ancestors.
 *
 * consistent() then answers the boolean verdict in O(variable lines +
 * variable epochs): resolve the surviving index of each variable
 * line, evaluate only the variable epochs' visibility, and test the
 * precomputed ancestor masks. The verdict is exact both ways: true
 * iff CheckerIndex::check() passes on the same image (an alien
 * variable value is a false the full check also reports). Callers
 * need the full check only for the message of a failing state
 * (tests/test_checker.cc and the permute differential test pin this).
 *
 * The scope bails (usable() == false) on structures it cannot encode:
 * more than 64 variable epochs, duplicate variable lines, or a cycle
 * in the dependency graph.
 */
class CheckScope
{
  public:
    /** Per-calling-thread scratch for consistent(). */
    struct Scratch
    {
        std::vector<std::ptrdiff_t> surv;
    };

    CheckScope(std::shared_ptr<const CheckerIndex> index,
               const NvmContents &base,
               const std::vector<std::uint64_t> &committed_up_to,
               const std::vector<std::uint64_t> &variable_lines);

    /** False when construction bailed; consistent() must not be
     *  called and every state needs the full check. */
    bool usable() const { return usable_; }

    /**
     * Exact verdict for one state. @p values holds the current value
     * of each variable line, aligned with the constructor's
     * variable_lines. Returns true iff the full check would pass.
     */
    bool consistent(const std::vector<std::uint64_t> &values,
                    Scratch &scratch) const;

  private:
    /** One epoch writing at least one variable line. */
    struct VarEpoch
    {
        /** A fixed line of the epoch already lost a write on the base
         *  image: the epoch is invisible in every state. */
        bool neverVisible = false;
        /** (variable-line slot, required surviving index) pairs. */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> need;
    };

    /** Ancestor facts of one potential surviving-value epoch. */
    struct SeedInfo
    {
        bool ancBadFixed = false;   //!< strict ancestor: bad fixed epoch
        std::uint64_t varAncMask = 0; //!< strict ancestors in varEpochs_
    };

    /** One variable line. */
    struct Slot
    {
        /** Index line id; kNoLine: the checker never reads this line. */
        std::uint32_t lineId = CheckerIndex::kNoLine;
        std::vector<SeedInfo> seed; //!< per write index of the line
    };

    std::shared_ptr<const CheckerIndex> index_;
    bool usable_ = false;
    /** Some fixed-line/epoch violation holds in every state. */
    bool constantFail_ = false;
    std::vector<Slot> slots_;
    std::vector<VarEpoch> varEpochs_;
    /** Variable epochs that must be visible in every consistent
     *  state: committed themselves, or a strict ancestor of a
     *  committed epoch or of a fixed surviving value's epoch. */
    std::uint64_t staticBadMask_ = 0;
};

/**
 * Verify post-crash NVM contents against the run log (one-shot: index
 * the log, run one check — exactly the pre-CheckerIndex cost).
 *
 * @param log stores and dependency edges recorded during the run
 * @param nvm surviving media contents (post ADR drain + undo rewind)
 * @param committed_up_to per-thread newest epoch the hardware had
 *        committed at the crash (from System::committedUpTo())
 */
CheckResult checkCrashConsistency(
    const RunLog &log, const NvmContents &nvm,
    const std::vector<std::uint64_t> &committed_up_to);

/**
 * Process-wide CheckerIndex memo, keyed by the log *contents* (a
 * 128-bit content hash), so every caller holding an identical log —
 * a Crash job and a Permute job probing the same tick, a campaign
 * verdict repeated after its probe — shares one build. Self-keying by
 * content means no configuration rendering can drift out of sync with
 * what actually shapes the log. Concurrent misses on one log wait on
 * that entry's build rather than building twice, so builds equal the
 * number of distinct logs seen. Entries are capped (oldest evicted);
 * the shared_ptr keeps an evicted index alive for holders.
 */
std::shared_ptr<const CheckerIndex>
sharedCheckerIndex(const RunLog &log);

/** Hit/build counters of the shared-index memo. */
struct CheckerIndexStats
{
    std::uint64_t builds = 0; //!< indexes built (memo misses)
    std::uint64_t hits = 0;   //!< lookups served an existing entry
};

/** Snapshot of the process-wide shared-index counters. */
CheckerIndexStats checkerIndexStats();

/** Drop memoised indexes and zero the counters (tests). */
void clearCheckerIndexCache();

} // namespace asap

#endif // ASAP_RECOVERY_CHECKER_HH
