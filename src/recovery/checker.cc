#include "recovery/checker.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <sstream>
#include <tuple>

namespace asap
{

namespace
{

/** splitmix64 finalizer: host-independent 64-bit mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Per-thread check() scratch, reused across calls and indexes. */
struct CheckScratch
{
    /** Surviving write index per line id (-1: initial contents). */
    std::vector<std::int32_t> surv;
    /** Visited stamp per epoch id; == gen means verified this call. */
    std::vector<std::uint32_t> seen;
    std::uint32_t gen = 0;
    std::vector<std::uint32_t> stack;
};

thread_local CheckScratch tlScratch;

} // namespace

CheckerIndex::CheckerIndex(const RunLog &log)
{
    const std::vector<RunLog::StoreRecord> &stores = log.allStores();
    const std::vector<RunLog::DepEdge> &edges = log.allEdges();

    // Epoch ids: every epoch that wrote or appears in an edge, in
    // (thread, epoch) order. Bucketing by thread first keeps the sorts
    // cheap: a thread's stores arrive in program order, so its list is
    // ascending but for the few edge endpoints appended after them.
    std::vector<std::vector<std::uint64_t>> byThread;
    auto note = [&byThread](std::uint16_t t, std::uint64_t ts) {
        if (t >= byThread.size())
            byThread.resize(std::size_t(t) + 1);
        std::vector<std::uint64_t> &v = byThread[t];
        if (v.empty() || v.back() != ts)
            v.push_back(ts);
    };
    for (const RunLog::StoreRecord &s : stores)
        note(s.thread, s.epoch);
    for (const RunLog::DepEdge &e : edges) {
        note(e.thread, e.epoch);
        note(e.srcThread, e.srcEpoch);
    }
    threadBegin_.assign(byThread.size() + 1, 0);
    for (std::size_t t = 0; t < byThread.size(); ++t) {
        std::vector<std::uint64_t> &v = byThread[t];
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        threadBegin_[t + 1] =
            threadBegin_[t] + static_cast<std::uint32_t>(v.size());
        epochTs_.insert(epochTs_.end(), v.begin(), v.end());
        epochThread_.insert(epochThread_.end(), v.size(),
                            static_cast<std::uint16_t>(t));
    }
    const std::size_t ne = epochTs_.size();
    auto epochId = [this](std::uint16_t t, std::uint64_t ts) {
        const auto first = epochTs_.begin() + threadBegin_[t];
        const auto last = epochTs_.begin() + threadBegin_[t + 1];
        return static_cast<std::uint32_t>(
            std::lower_bound(first, last, ts) - epochTs_.begin());
    };

    // Line ids in address order.
    lineAddr_.reserve(stores.size());
    for (const RunLog::StoreRecord &s : stores)
        lineAddr_.push_back(s.line);
    std::sort(lineAddr_.begin(), lineAddr_.end());
    lineAddr_.erase(std::unique(lineAddr_.begin(), lineAddr_.end()),
                    lineAddr_.end());
    const std::size_t nl = lineAddr_.size();

    // Each line's writes in retirement order: one stable bucket pass
    // by line id over the stores in seq order. A log appended in
    // retirement order needs no sort; any other is sorted by seq and
    // then every other field, so equal seqs still give one layout.
    std::vector<std::uint32_t> order(stores.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<std::uint32_t>(i);
    auto bySeq = [&stores](std::uint32_t a, std::uint32_t b) {
        const RunLog::StoreRecord &x = stores[a];
        const RunLog::StoreRecord &y = stores[b];
        return std::tie(x.seq, x.line, x.thread, x.epoch, x.value) <
               std::tie(y.seq, y.line, y.thread, y.epoch, y.value);
    };
    if (!std::is_sorted(order.begin(), order.end(), bySeq))
        std::sort(order.begin(), order.end(), bySeq);
    std::vector<std::uint32_t> lineOf(stores.size());
    writeBegin_.assign(nl + 1, 0);
    for (std::size_t i = 0; i < stores.size(); ++i) {
        lineOf[i] = lineIdOf(stores[i].line);
        ++writeBegin_[lineOf[i] + 1];
    }
    for (std::size_t l = 1; l <= nl; ++l)
        writeBegin_[l] += writeBegin_[l - 1];
    writeEpoch_.resize(stores.size());
    std::vector<std::uint64_t> token(stores.size());
    {
        std::vector<std::uint32_t> at(writeBegin_.begin(),
                                      writeBegin_.end() - 1);
        for (std::uint32_t i : order) {
            const std::uint32_t w = at[lineOf[i]]++;
            writeEpoch_[w] = epochId(stores[i].thread, stores[i].epoch);
            token[w] = stores[i].value;
        }
    }

    // Token table at load <= 1/2; the first duplicate in line order
    // becomes the build message.
    std::size_t cap = 16;
    while (cap < 2 * token.size())
        cap <<= 1;
    tokKeys_.assign(cap, 0);
    tokVals_.assign(cap, TokenPos{});
    tokMask_ = cap - 1;
    for (std::uint32_t l = 0; l < nl; ++l) {
        for (std::uint32_t w = writeBegin_[l]; w < writeBegin_[l + 1];
             ++w) {
            std::size_t i = mix64(token[w]) & tokMask_;
            while (tokVals_[i].line != kNoLine && tokKeys_[i] != token[w])
                i = (i + 1) & tokMask_;
            if (tokVals_[i].line != kNoLine) {
                if (buildOk) {
                    std::ostringstream os;
                    os << "duplicate store token " << token[w];
                    buildOk = false;
                    buildMessage = os.str();
                }
                continue;
            }
            tokKeys_[i] = token[w];
            tokVals_[i] = {l, w - writeBegin_[l]};
        }
    }

    // Spans: bucket writes by epoch (line-major, ascending index
    // within a line), then keep each (epoch, line)'s last index.
    std::vector<std::uint32_t> fill(ne + 1, 0);
    for (std::uint32_t e : writeEpoch_)
        ++fill[e + 1];
    for (std::size_t e = 1; e <= ne; ++e)
        fill[e] += fill[e - 1];
    const std::vector<std::uint32_t> bucketBegin = fill;
    std::vector<Span> bucket(writeEpoch_.size());
    for (std::uint32_t l = 0; l < nl; ++l) {
        for (std::uint32_t w = writeBegin_[l]; w < writeBegin_[l + 1];
             ++w)
            bucket[fill[writeEpoch_[w]]++] = {l, w - writeBegin_[l]};
    }
    spanBegin_.reserve(ne + 1);
    spans_.reserve(bucket.size());
    for (std::size_t e = 0; e < ne; ++e) {
        spanBegin_.push_back(static_cast<std::uint32_t>(spans_.size()));
        for (std::uint32_t k = bucketBegin[e]; k < bucketBegin[e + 1];
             ++k) {
            if (spans_.size() > spanBegin_.back() &&
                spans_.back().line == bucket[k].line)
                spans_.back().lastIdx = bucket[k].lastIdx;
            else
                spans_.push_back(bucket[k]);
        }
    }
    spanBegin_.push_back(static_cast<std::uint32_t>(spans_.size()));

    // Parents: same-thread predecessor plus cross-thread sources,
    // bucketed by child, then sorted and deduplicated per child.
    std::vector<std::uint32_t> rawBegin(ne + 1, 0);
    for (std::uint32_t e = 1; e < ne; ++e) {
        if (epochThread_[e - 1] == epochThread_[e])
            ++rawBegin[e + 1];
    }
    for (const RunLog::DepEdge &d : edges)
        ++rawBegin[epochId(d.thread, d.epoch) + 1];
    for (std::size_t e = 1; e <= ne; ++e)
        rawBegin[e] += rawBegin[e - 1];
    std::vector<std::uint32_t> raw(rawBegin[ne]);
    {
        std::vector<std::uint32_t> at(rawBegin.begin(), rawBegin.end() - 1);
        for (std::uint32_t e = 1; e < ne; ++e) {
            if (epochThread_[e - 1] == epochThread_[e])
                raw[at[e]++] = e - 1;
        }
        for (const RunLog::DepEdge &d : edges)
            raw[at[epochId(d.thread, d.epoch)]++] =
                epochId(d.srcThread, d.srcEpoch);
    }
    parentBegin_.reserve(ne + 1);
    parents_.reserve(raw.size());
    for (std::size_t c = 0; c < ne; ++c) {
        parentBegin_.push_back(static_cast<std::uint32_t>(parents_.size()));
        const auto first = raw.begin() + rawBegin[c];
        const auto last = raw.begin() + rawBegin[c + 1];
        std::sort(first, last);
        parents_.insert(parents_.end(), first, std::unique(first, last));
    }
    parentBegin_.push_back(static_cast<std::uint32_t>(parents_.size()));

    // Topological order (Kahn, ascending ids first): parents precede
    // children. A cycle leaves some epochs out.
    std::vector<std::uint32_t> childBegin(ne + 1, 0);
    for (std::uint32_t p : parents_)
        ++childBegin[p + 1];
    for (std::size_t e = 1; e <= ne; ++e)
        childBegin[e] += childBegin[e - 1];
    std::vector<std::uint32_t> children(parents_.size());
    {
        std::vector<std::uint32_t> at(childBegin.begin(),
                                      childBegin.end() - 1);
        for (std::uint32_t c = 0; c < ne; ++c) {
            for (std::uint32_t k = parentBegin_[c];
                 k < parentBegin_[c + 1]; ++k)
                children[at[parents_[k]]++] = c;
        }
    }
    std::vector<std::uint32_t> indeg(ne);
    topo_.reserve(ne);
    for (std::uint32_t e = 0; e < ne; ++e) {
        indeg[e] = parentBegin_[e + 1] - parentBegin_[e];
        if (indeg[e] == 0)
            topo_.push_back(e);
    }
    for (std::size_t head = 0; head < topo_.size(); ++head) {
        const std::uint32_t p = topo_[head];
        for (std::uint32_t k = childBegin[p]; k < childBegin[p + 1]; ++k) {
            if (--indeg[children[k]] == 0)
                topo_.push_back(children[k]);
        }
    }
    cyclic_ = topo_.size() != ne;
}

const CheckerIndex::TokenPos *
CheckerIndex::findToken(std::uint64_t token) const
{
    std::size_t i = mix64(token) & tokMask_;
    while (tokVals_[i].line != kNoLine) {
        if (tokKeys_[i] == token)
            return &tokVals_[i];
        i = (i + 1) & tokMask_;
    }
    return nullptr;
}

std::uint32_t
CheckerIndex::lineIdOf(std::uint64_t addr) const
{
    auto it = std::lower_bound(lineAddr_.begin(), lineAddr_.end(), addr);
    if (it == lineAddr_.end() || *it != addr)
        return kNoLine;
    return static_cast<std::uint32_t>(it - lineAddr_.begin());
}

std::pair<std::uint32_t, std::uint32_t>
CheckerIndex::threadEpochs(std::size_t t) const
{
    if (t + 1 >= threadBegin_.size())
        return {0, 0};
    return {threadBegin_[t], threadBegin_[t + 1]};
}

CheckResult
CheckerIndex::check(const NvmView &view,
                    const std::vector<std::uint64_t> &committed_up_to)
    const
{
    CheckResult res;
    auto fail = [&res](const std::string &msg) {
        res.ok = false;
        res.message = msg;
        return res;
    };
    if (!buildOk)
        return fail(buildMessage);

    CheckScratch &sc = tlScratch;

    // --- surviving index per line ----------------------------------------
    // -1 means "no recorded write survived" (initial contents).
    std::vector<std::int32_t> &surv = sc.surv;
    surv.resize(numLines());
    for (std::uint32_t l = 0; l < numLines(); ++l) {
        const std::uint64_t v = view.read(lineAddr_[l]);
        if (v == 0) {
            surv[l] = -1;
            continue;
        }
        const TokenPos *pos = findToken(v);
        if (!pos || pos->line != l) {
            std::ostringstream os;
            os << "line " << lineAddr_[l] << " holds alien value " << v;
            return fail(os.str());
        }
        surv[l] = static_cast<std::int32_t>(pos->idx);
    }

    // --- checks ------------------------------------------------------------
    // An epoch is "fully visible" if, for every line it wrote, the
    // surviving write index is >= the epoch's last write index.
    auto epochVisible = [&](std::uint32_t e, std::string &why) {
        for (std::uint32_t k = spanBegin_[e]; k < spanBegin_[e + 1];
             ++k) {
            const Span &sp = spans_[k];
            if (surv[sp.line] < static_cast<std::int32_t>(sp.lastIdx)) {
                std::ostringstream os;
                os << "epoch (t" << epochThread_[e] << ",e"
                   << epochTs_[e] << ") write idx " << sp.lastIdx
                   << " to line " << lineAddr_[sp.line]
                   << " not durable (surviving idx " << surv[sp.line]
                   << ")";
                why = os.str();
                return false;
            }
        }
        return true;
    };

    // Walk ancestors of a seed epoch, verifying visibility of every
    // strict ancestor. Stamps mark epochs verified visible (with all
    // their ancestors) during this call only: they depend on surv.
    if (sc.seen.size() < numEpochs())
        sc.seen.resize(numEpochs(), 0);
    if (++sc.gen == 0) {
        std::fill(sc.seen.begin(), sc.seen.end(), 0);
        sc.gen = 1;
    }
    const std::uint32_t gen = sc.gen;
    std::vector<std::uint32_t> &stack = sc.stack;
    auto verifyAncestors = [&](std::uint32_t seed, std::string &why) {
        auto pushParents = [&](std::uint32_t e) {
            stack.insert(stack.end(), parents_.begin() + parentBegin_[e],
                         parents_.begin() + parentBegin_[e + 1]);
        };
        stack.clear();
        pushParents(seed);
        while (!stack.empty()) {
            const std::uint32_t e = stack.back();
            stack.pop_back();
            if (sc.seen[e] == gen)
                continue;
            sc.seen[e] = gen;
            if (!epochVisible(e, why))
                return false;
            pushParents(e);
        }
        return true;
    };

    std::string why;
    // Check 1: prefix closure for every surviving value's epoch, in
    // ascending line order.
    for (std::uint32_t l = 0; l < numLines(); ++l) {
        if (surv[l] < 0)
            continue;
        const std::uint32_t e = writeEpoch_[writeBegin_[l] +
                                            static_cast<std::uint32_t>(
                                                surv[l])];
        if (!verifyAncestors(e, why)) {
            std::ostringstream os;
            os << "surviving value on line " << lineAddr_[l]
               << " (epoch t" << epochThread_[e] << ",e" << epochTs_[e]
               << ") has a non-durable ancestor: " << why;
            return fail(os.str());
        }
    }

    // Check 2: committed epochs are fully durable, including their
    // ancestors, in (thread, epoch) order.
    for (std::size_t t = 0; t < committed_up_to.size(); ++t) {
        const auto [first, last] = threadEpochs(t);
        for (std::uint32_t e = first; e < last; ++e) {
            if (epochTs_[e] > committed_up_to[t])
                break;
            if (!epochVisible(e, why)) {
                std::ostringstream os;
                os << "committed epoch (t" << t << ",e" << epochTs_[e]
                   << ") lost a write: " << why;
                return fail(os.str());
            }
            if (!verifyAncestors(e, why)) {
                std::ostringstream os;
                os << "committed epoch (t" << t << ",e" << epochTs_[e]
                   << ") has a non-durable ancestor: " << why;
                return fail(os.str());
            }
        }
    }

    return res;
}

CheckScope::CheckScope(std::shared_ptr<const CheckerIndex> index,
                       const NvmContents &base,
                       const std::vector<std::uint64_t> &committed_up_to,
                       const std::vector<std::uint64_t> &variable_lines)
    : index_(std::move(index))
{
    const CheckerIndex &ix = *index_;
    if (!ix.buildOk) {
        // Every check fails with the build message.
        constantFail_ = true;
        usable_ = true;
        return;
    }
    const std::size_t nl = ix.numLines();
    const std::size_t ne = ix.numEpochs();

    // Slot table. Duplicate variable lines would make "the value of
    // line L" ambiguous — bail rather than guess.
    {
        std::vector<std::uint64_t> sorted = variable_lines;
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) !=
            sorted.end())
            return;
    }
    std::vector<std::int32_t> slotOf(nl, -1);
    slots_.resize(variable_lines.size());
    for (std::size_t i = 0; i < variable_lines.size(); ++i) {
        slots_[i].lineId = ix.lineIdOf(variable_lines[i]);
        if (slots_[i].lineId != CheckerIndex::kNoLine)
            slotOf[slots_[i].lineId] = static_cast<std::int32_t>(i);
    }

    // Base surviving index per fixed line. A fixed alien value fails
    // every state, whatever the variable lines hold.
    std::vector<std::int32_t> survBase(nl, -1);
    for (std::uint32_t l = 0; l < nl; ++l) {
        if (slotOf[l] >= 0)
            continue;
        const std::uint64_t v = base.read(ix.lineAddr_[l]);
        if (v == 0)
            continue;
        const CheckerIndex::TokenPos *pos = ix.findToken(v);
        if (!pos || pos->line != l) {
            constantFail_ = true;
            usable_ = true;
            return;
        }
        survBase[l] = static_cast<std::int32_t>(pos->idx);
    }

    // Variable epochs (writing a variable line) in id order, i.e.
    // (thread, epoch) order; base visibility of every other epoch.
    auto spansOf = [&ix](std::uint32_t e) {
        return std::make_pair(ix.spans_.begin() + ix.spanBegin_[e],
                              ix.spans_.begin() + ix.spanBegin_[e + 1]);
    };
    std::vector<std::uint64_t> varBit(ne, 0);
    for (std::uint32_t e = 0; e < ne; ++e) {
        const auto [b, end] = spansOf(e);
        for (auto it = b; it != end; ++it) {
            if (slotOf[it->line] >= 0) {
                if (varEpochs_.size() == 64)
                    return; // too many to encode in a mask
                varBit[e] = 1ULL << varEpochs_.size();
                varEpochs_.emplace_back();
                break;
            }
        }
    }
    std::vector<bool> visBase(ne, true);
    for (std::uint32_t e = 0, var = 0; e < ne; ++e) {
        const auto [b, end] = spansOf(e);
        VarEpoch *ve = varBit[e] ? &varEpochs_[var++] : nullptr;
        for (auto it = b; it != end; ++it) {
            const std::int32_t need =
                static_cast<std::int32_t>(it->lastIdx);
            if (ve && slotOf[it->line] >= 0) {
                ve->need.emplace_back(
                    static_cast<std::uint32_t>(slotOf[it->line]),
                    it->lastIdx);
            } else if (survBase[it->line] < need) {
                if (ve)
                    ve->neverVisible = true;
                else
                    visBase[e] = false;
            }
        }
    }
    if (ix.cyclic_)
        return; // no topological order to propagate along

    // One pass over the topological order propagates, per epoch,
    // whether a strict ancestor is a non-visible fixed epoch (ancBad)
    // and which variable epochs are strict ancestors (anc mask).
    std::vector<std::uint64_t> anc(ne, 0);
    std::vector<bool> ancBad(ne, false);
    auto badFixed = [&](std::uint32_t e) {
        return varBit[e] == 0 && !visBase[e];
    };
    for (std::uint32_t c : ix.topo_) {
        for (std::uint32_t k = ix.parentBegin_[c];
             k < ix.parentBegin_[c + 1]; ++k) {
            const std::uint32_t p = ix.parents_[k];
            anc[c] |= anc[p] | varBit[p];
            if (ancBad[p] || badFixed(p))
                ancBad[c] = true;
        }
    }

    // Static fail sources: committed epochs (Check 2) and fixed
    // lines' surviving epochs (Check 1). A fixed violation is a
    // constant fail; variable ancestors accumulate into the mask of
    // epochs every consistent state must keep visible.
    for (std::size_t t = 0; t < committed_up_to.size(); ++t) {
        const auto [first, last] = ix.threadEpochs(t);
        for (std::uint32_t e = first; e < last; ++e) {
            if (ix.epochTs_[e] > committed_up_to[t])
                break;
            if (ancBad[e] || badFixed(e)) {
                constantFail_ = true;
                usable_ = true;
                return;
            }
            staticBadMask_ |= anc[e] | varBit[e];
        }
    }
    for (std::uint32_t l = 0; l < nl; ++l) {
        if (slotOf[l] >= 0 || survBase[l] < 0)
            continue;
        const std::uint32_t e =
            ix.writeEpoch_[ix.writeBegin_[l] +
                           static_cast<std::uint32_t>(survBase[l])];
        if (ancBad[e]) {
            constantFail_ = true;
            usable_ = true;
            return;
        }
        staticBadMask_ |= anc[e];
    }

    // Per-slot seed tables: ancestor facts for every write that can
    // survive on a variable line.
    for (Slot &s : slots_) {
        if (s.lineId == CheckerIndex::kNoLine)
            continue;
        const std::uint32_t w0 = ix.writeBegin_[s.lineId];
        const std::uint32_t w1 = ix.writeBegin_[s.lineId + 1];
        s.seed.resize(w1 - w0);
        for (std::uint32_t w = w0; w < w1; ++w) {
            const std::uint32_t e = ix.writeEpoch_[w];
            s.seed[w - w0] = {ancBad[e], anc[e]};
        }
    }
    usable_ = true;
}

bool
CheckScope::consistent(const std::vector<std::uint64_t> &values,
                       Scratch &scratch) const
{
    if (constantFail_)
        return false;
    const CheckerIndex &ix = *index_;

    // Surviving write index per variable line (an alien value fails
    // the full check too).
    scratch.surv.assign(slots_.size(), -1);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].lineId == CheckerIndex::kNoLine)
            continue; // the checker never reads this line
        const std::uint64_t v = values[i];
        if (v == 0)
            continue;
        const CheckerIndex::TokenPos *pos = ix.findToken(v);
        if (!pos || pos->line != slots_[i].lineId)
            return false;
        scratch.surv[i] = static_cast<std::ptrdiff_t>(pos->idx);
    }

    // Visibility of the variable epochs under this state.
    std::uint64_t notVisible = 0;
    for (std::size_t b = 0; b < varEpochs_.size(); ++b) {
        const VarEpoch &ve = varEpochs_[b];
        bool vis = !ve.neverVisible;
        if (vis) {
            for (const auto &[slot, idx] : ve.need) {
                if (scratch.surv[slot] <
                    static_cast<std::ptrdiff_t>(idx)) {
                    vis = false;
                    break;
                }
            }
        }
        if (!vis)
            notVisible |= 1ULL << b;
    }

    // Check 2 (+ Check 1 for fixed lines): a committed epoch, or a
    // strict ancestor of a committed epoch or fixed surviving value,
    // lost a write.
    if (notVisible & staticBadMask_)
        return false;

    // Check 1 for variable lines: the surviving value's epoch has a
    // non-durable strict ancestor.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const std::ptrdiff_t idx = scratch.surv[i];
        if (idx < 0)
            continue;
        const SeedInfo &s =
            slots_[i].seed[static_cast<std::size_t>(idx)];
        if (s.ancBadFixed || (s.varAncMask & notVisible))
            return false;
    }
    return true;
}

CheckResult
checkCrashConsistency(const RunLog &log, const NvmContents &nvm,
                      const std::vector<std::uint64_t> &committed_up_to)
{
    // Deliberately unmemoised: this is the one-shot path (and the
    // permuter's naive baseline engine) — it pays the full index build
    // per call, exactly as before CheckerIndex existed.
    CheckerIndex index(log);
    return index.check(NvmView(nvm), committed_up_to);
}

namespace
{

/** 128-bit content hash of a RunLog: two independent streams over
 *  every store and edge field, one 64-bit word per step (multiply
 *  then xor-shift, so high input bits reach the low state bits). The
 *  index is a pure function of this content, so the hash is a safe
 *  memo key. */
struct LogFingerprint
{
    std::uint64_t a = 14695981039346656037ULL;
    std::uint64_t b = 0x2b992ddfa23249d6ULL;

    void
    mix(std::uint64_t v)
    {
        a = (a ^ v) * 0x9e3779b97f4a7c15ULL;
        a ^= a >> 32;
        b = (b + v) * 0xc2b2ae3d27d4eb4fULL;
        b ^= b >> 29;
    }

    bool
    operator==(const LogFingerprint &o) const
    {
        return a == o.a && b == o.b;
    }
};

LogFingerprint
fingerprintLog(const RunLog &log)
{
    LogFingerprint fp;
    fp.mix(log.allStores().size());
    for (const RunLog::StoreRecord &s : log.allStores()) {
        fp.mix(s.seq);
        fp.mix((static_cast<std::uint64_t>(s.thread) << 32) ^ s.epoch);
        fp.mix(s.line);
        fp.mix(s.value);
    }
    fp.mix(log.allEdges().size());
    for (const RunLog::DepEdge &e : log.allEdges()) {
        fp.mix((static_cast<std::uint64_t>(e.thread) << 32) ^
               e.srcThread);
        fp.mix(e.epoch);
        fp.mix(e.srcEpoch);
    }
    return fp;
}

/** One memoised log. The first caller builds under @c mu; callers
 *  arriving meanwhile wait on it instead of building again. */
struct IndexCacheEntry
{
    LogFingerprint key;
    std::mutex mu;
    std::shared_ptr<const CheckerIndex> index; //!< null until built
};

/** Logs alive at once are few (one per in-flight experiment); a small
 *  FIFO window is plenty to bridge probe -> verdict -> permute reuse. */
constexpr std::size_t kIndexCacheCap = 16;

std::mutex gIndexMu;
std::deque<std::shared_ptr<IndexCacheEntry>> gIndexCache;
std::atomic<std::uint64_t> gIndexBuilds{0};
std::atomic<std::uint64_t> gIndexHits{0};

} // namespace

std::shared_ptr<const CheckerIndex>
sharedCheckerIndex(const RunLog &log)
{
    const LogFingerprint key = fingerprintLog(log);
    std::shared_ptr<IndexCacheEntry> entry;
    {
        std::lock_guard<std::mutex> lock(gIndexMu);
        for (const std::shared_ptr<IndexCacheEntry> &e : gIndexCache) {
            if (e->key == key) {
                entry = e;
                break;
            }
        }
        if (!entry) {
            entry = std::make_shared<IndexCacheEntry>();
            entry->key = key;
            gIndexCache.push_back(entry);
            while (gIndexCache.size() > kIndexCacheCap)
                gIndexCache.pop_front();
        }
    }
    // Build under the entry's own lock: other logs never wait behind
    // this sort, and a concurrent miss on this log waits, then hits.
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->index) {
        gIndexHits.fetch_add(1, std::memory_order_relaxed);
        return entry->index;
    }
    entry->index = std::make_shared<const CheckerIndex>(log);
    gIndexBuilds.fetch_add(1, std::memory_order_relaxed);
    return entry->index;
}

CheckerIndexStats
checkerIndexStats()
{
    CheckerIndexStats s;
    s.builds = gIndexBuilds.load(std::memory_order_relaxed);
    s.hits = gIndexHits.load(std::memory_order_relaxed);
    return s;
}

void
clearCheckerIndexCache()
{
    std::lock_guard<std::mutex> lock(gIndexMu);
    gIndexCache.clear();
    gIndexBuilds.store(0, std::memory_order_relaxed);
    gIndexHits.store(0, std::memory_order_relaxed);
}

} // namespace asap
