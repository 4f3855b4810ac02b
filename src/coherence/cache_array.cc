#include "coherence/cache_array.hh"

#include <sys/mman.h>

#include <cstring>
#include <mutex>
#include <utility>

namespace asap
{

namespace
{

/**
 * All-zero tag arrays that no CacheArray holds, with their sizes in
 * bytes. Every System of a sweep builds the same geometries (an LLC
 * plus per-core L1s and L2s, ~9.5 MB of tags by default), so a new
 * array is nearly always a recycled one: its touched pages are
 * resident already and were re-zeroed set by set on release. Fresh
 * arrays come from anonymous mappings, zero without being written.
 * Either way construction writes nothing and faults in no pages.
 */
std::mutex poolMu;
std::vector<std::pair<std::size_t, void *>> pool;

void *
acquireZeroed(std::size_t bytes)
{
    {
        std::lock_guard<std::mutex> lock(poolMu);
        for (auto it = pool.begin(); it != pool.end(); ++it) {
            if (it->first == bytes) {
                void *p = it->second;
                pool.erase(it);
                return p;
            }
        }
    }
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    fatal_if(p == MAP_FAILED, "cannot map a ", bytes,
             "-byte cache tag array");
    return p;
}

/** Return an array whose bytes are all zero again to the pool. */
void
releaseZeroed(void *p, std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(poolMu);
    pool.emplace_back(bytes, p);
}

} // namespace

CacheArray::CacheArray(unsigned sets, unsigned ways)
    : numSets(sets), numWays(ways)
{
    fatal_if(sets == 0 || ways == 0, "cache must have sets and ways");
    entries = static_cast<Entry *>(
        acquireZeroed(std::size_t(sets) * ways * sizeof(Entry)));
    // Never reallocates mid-run; untouched capacity is never faulted.
    touchedSets.reserve(sets);
}

CacheArray::~CacheArray()
{
    for (std::uint32_t set : touchedSets) {
        std::memset(static_cast<void *>(entries + std::size_t(set) * numWays),
                    0, numWays * sizeof(Entry));
    }
    releaseZeroed(entries, std::size_t(numSets) * numWays * sizeof(Entry));
}

} // namespace asap
