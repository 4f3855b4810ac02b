/**
 * @file
 * Crash-state permuter (CrashMonkey-style, over the persist path).
 *
 * The crash campaign checks ONE post-crash NVM state per tick: the
 * canonical ADR drain (WPQ to media, then undo rewind). But at any
 * crash instant many states are legally reachable, because the commit
 * protocol is distributed: when an epoch's commit messages are in
 * flight, each memory controller applies its share of the commit
 * (erase the epoch's undo records, release its delay records) in its
 * own event — a power failure can land between any subset of those
 * per-controller applications. This module enumerates exactly that
 * space.
 *
 * Atom model. One *atom* = "controller M processed commit(T, E)" for
 * each commit-in-flight epoch (T, E) and each controller holding at
 * least one of its records. Within one controller the application is
 * a single event (receiveCommit runs the policy's onCommit
 * synchronously), so no finer interleaving is reachable. The state
 * space is 2^atoms subsets.
 *
 * Per-line final value, given an applied-atom subset: a line whose
 * delay record's atom is applied ends at the delay value (released
 * directly, or absorbed into a surviving undo that then rewinds to
 * it — both orders converge); a line whose undo record's atom is
 * applied ends at the speculative durable value (the undo is erased,
 * so the rewind never happens); otherwise the line keeps its
 * canonical post-crash value. This rule is order-independent: the one
 * shape that would be order-dependent (an undo and a same-line delay
 * from two *different* in-flight epochs) cannot arise, because a
 * write collision creates a conflict dependency and a dependent epoch
 * only becomes safe after its source epoch fully committed. The
 * enumerator still counts such shapes (orderCollisions) defensively.
 *
 * WPQ drain orders need no enumeration: media contents update at WPQ
 * issue time and the ADR drain is loss-free, so every bank-legal
 * drain order converges to the same per-line values (coalescing keeps
 * one entry per line). The snapshot records WPQ occupancy for the
 * taxonomy stats only.
 *
 * Fault injection (test-only): FaultMode::DropUndo additionally makes
 * every undo record an independently droppable atom, modelling a
 * recovery policy that loses records before the rewind. Dropping an
 * undo of an *unsafe* epoch lets a speculative value survive while
 * ancestor-epoch writes still in volatile persist buffers are lost —
 * a prefix-closure violation the checker must flag.
 *
 * Engines. Two check loops produce bit-identical reports:
 *
 *  - Naive: the original loop. Per state, rebuild every line's final
 *    value, hash the full image, and on a distinct image mutate a
 *    private copy of the NvmContents, run the one-shot checker (which
 *    re-indexes the run log), and revert. O(effects) per state +
 *    O(log) per distinct image. Kept as the benchmark baseline.
 *  - Incremental (default): enumerate the exhaustive space in
 *    reflected Gray-code order so consecutive states differ in one
 *    atom; a per-atom inverted index updates only the lines that atom
 *    can touch, and an incrementally maintained XOR fingerprint
 *    replaces the full-image hash. Each distinct image is judged by a
 *    CheckScope (exact both ways) over a build-once CheckerIndex, and
 *    the lowest bad mask gets one full check through a copy-on-write
 *    overlay (NvmView) for its message, so nothing mutates shared
 *    state — which also makes the loop parallel: the mask space
 *    splits into contiguous Gray segments checked on a ThreadPool and
 *    merged deterministically (counts summed, distinct fingerprints
 *    unioned, first-bad = the numerically lowest bad mask).
 *
 * First-bad is the lowest bad mask under every engine: exhaustive
 * enumeration is (or covers) ascending order, and sampled mask sets
 * are sorted before checking, so the report cannot depend on engine,
 * thread count or draw order.
 */

#ifndef ASAP_PERMUTE_PERMUTE_HH
#define ASAP_PERMUTE_PERMUTE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/nvm_contents.hh"
#include "mem/recovery_policy.hh"
#include "recovery/checker.hh"
#include "recovery/run_log.hh"

namespace asap
{
namespace permute
{

/** Persist-path state of one memory controller at the crash instant. */
struct McSnapshot
{
    unsigned mc = 0;
    std::vector<UndoRecordView> undos;   //!< sorted by line
    std::vector<DelayRecordView> delays; //!< RT release order
    std::size_t wpqLines = 0;            //!< occupancy (taxonomy stats)
};

/** Everything the enumerator needs, harvested at the crash instant. */
struct PermuteSnapshot
{
    std::vector<McSnapshot> mcs; //!< ascending controller id

    /** Commit-in-flight epochs (commit messages sent, ACKs pending). */
    std::vector<std::pair<std::uint16_t, std::uint64_t>> inFlight;

    /**
     * Durable value at the crash instant for every line holding a
     * record (WPQ-pending value if any, else media). Because media
     * contents update at WPQ issue time and the ADR drain is
     * loss-free, this is exactly the value the canonical drain leaves
     * on the line before the undo rewind.
     */
    std::unordered_map<std::uint64_t, std::uint64_t> durableAtCrash;
};

/** Test-only fault injection into the enumerated action space. */
enum class FaultMode
{
    None,     //!< reachable states only
    DropUndo, //!< each undo record may independently be lost
};

/** Parse a fault-mode name; returns false on an unknown name. */
bool parsePermuteFault(const std::string &name, FaultMode &out);
const char *toString(FaultMode mode);
/** Comma-separated valid fault-mode names (error messages, --help). */
const char *permuteFaultNames();

/** Which check loop enumerates the states (reports are identical). */
enum class Engine
{
    Naive,       //!< original rebuild-hash-mutate-revert loop
    Incremental, //!< Gray-code + inverted index + overlay checks
};

/** Parse an engine name ("" and "incremental" -> Incremental,
 *  "naive" -> Naive); returns false on an unknown name. */
bool parsePermuteEngine(const std::string &name, Engine &out);
const char *toString(Engine engine);
/** Comma-separated valid engine names (error messages, --help). */
const char *permuteEngineNames();

/** i-th reflected Gray code: consecutive values differ in exactly
 *  one bit and i = 0..2^n-1 covers every n-bit value once. */
constexpr std::uint64_t
grayCode(std::uint64_t i)
{
    return i ^ (i >> 1);
}

/**
 * Toggle the stderr progress meter (states checked, states/sec, ETA)
 * for subsequent permuteAndCheck calls. Host-side observability only:
 * rate-limited statusLine output, never touches the report. Process-
 * wide because the permuter runs deep under the experiment engine.
 */
void setPermuteProgress(bool on);

/** One orderable crash-time action. */
struct Atom
{
    enum class Kind : std::uint8_t
    {
        CommitApply, //!< controller mc processes commit(thread, epoch)
        DropUndo,    //!< fault: controller mc loses the undo for line
    };

    Kind kind = Kind::CommitApply;
    unsigned mc = 0;
    std::uint16_t thread = 0;
    std::uint64_t epoch = 0;
    std::uint64_t line = 0; //!< DropUndo only
};

/**
 * Derive the atom list for a snapshot, in the canonical order that
 * defines state-mask bit positions (sorted by kind, mc, thread,
 * epoch, line — stable across runs, hosts and shards).
 */
std::vector<Atom> deriveAtoms(const PermuteSnapshot &snap,
                              FaultMode fault);

/**
 * The value of every record-holding line in the state @p mask selects
 * over @p atoms — the overlay that state is checked through on top of
 * the canonical post-crash image.
 */
std::unordered_map<std::uint64_t, std::uint64_t>
stateOverlay(const PermuteSnapshot &snap, const std::vector<Atom> &atoms,
             std::uint64_t mask);

/** Enumeration limits and repro hooks. */
struct PermuteOptions
{
    /**
     * Maximum states to check per crash tick. Exhaustive when
     * 2^atoms <= bound; otherwise seeded sampling that always
     * includes the canonical (empty) and all-applied states.
     */
    std::uint64_t bound = 4096;
    std::uint64_t sampleSeed = 1; //!< sampling PRNG seed
    FaultMode fault = FaultMode::None;
    bool haveOnlyMask = false; //!< --repro: check a single state
    std::uint64_t onlyMask = 0;

    /** Check loop (reports are engine-independent by construction). */
    Engine engine = Engine::Incremental;
    /**
     * Worker threads for the incremental engine's segment checks:
     * 1 = inline (no pool), 0 = one per hardware thread. Ignored by
     * the naive engine, which mutates one image copy across checks.
     */
    unsigned threads = 1;
};

/** Enumeration + checking outcome for one crash tick. */
struct PermuteReport
{
    unsigned atoms = 0;
    /** True when > kMaxAtoms atoms were found and the tail dropped. */
    bool atomsTruncated = false;
    std::uint64_t statesReachable = 0; //!< 2^atoms (saturating)
    std::uint64_t statesChecked = 0;   //!< masks evaluated
    std::uint64_t distinctStates = 0;  //!< unique NVM images seen
    bool truncated = false;            //!< sampled, not exhaustive
    std::uint64_t orderCollisions = 0; //!< see file comment; expect 0
    std::uint64_t inconsistentStates = 0;
    bool haveFirstBad = false;
    std::uint64_t firstBadMask = 0;
    std::string firstBadMessage;
};

/** Masks are stored in a u64; beyond this the atom list truncates. */
constexpr unsigned kMaxAtoms = 63;

/**
 * Enumerate the reachable states and run the recovery checker on
 * each. @p nvm must hold the canonical post-crash state and is only
 * read: the naive engine mutates a private copy of it, the
 * incremental engine checks states through a copy-on-write overlay.
 * So concurrent calls may share one image. Duplicate NVM images
 * (different masks, same bytes) are checked once and counted per
 * mask.
 */
PermuteReport
permuteAndCheck(const PermuteSnapshot &snap, const PermuteOptions &opt,
                const NvmContents &nvm, const RunLog &log,
                const std::vector<std::uint64_t> &committed_up_to);

/** Format / parse a state mask as the --repro hex token (no 0x). */
std::string maskToHex(std::uint64_t mask);
bool maskFromHex(const std::string &hex, std::uint64_t &out);

} // namespace permute
} // namespace asap

#endif // ASAP_PERMUTE_PERMUTE_HH
