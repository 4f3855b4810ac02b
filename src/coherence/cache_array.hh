/**
 * @file
 * Set-associative tag array with LRU replacement.
 *
 * The timing model only needs hit/miss decisions and victim lines, so
 * the array stores tags (line addresses), not data. Data for PM lines
 * lives functionally in the traces and in NvmContents.
 */

#ifndef ASAP_COHERENCE_CACHE_ARRAY_HH
#define ASAP_COHERENCE_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/log.hh"

namespace asap
{

/** LRU set-associative tag array. */
class CacheArray
{
  public:
    /** Result of inserting a line. */
    struct Victim
    {
        bool valid = false;         //!< true if a line was evicted
        std::uint64_t line = 0;     //!< the evicted line address
        bool dirty = false;         //!< evicted line had been written
    };

    CacheArray(unsigned sets, unsigned ways);
    ~CacheArray();

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    /** True if @p line is resident; refreshes LRU state on hit. */
    bool
    access(std::uint64_t line, bool is_write)
    {
        Entry *e = find(line);
        if (!e)
            return false;
        e->lastUse = ++useClock;
        e->dirty = e->dirty || is_write;
        return true;
    }

    /** Non-updating residency probe. */
    bool
    contains(std::uint64_t line) const
    {
        return const_cast<CacheArray *>(this)->find(line) != nullptr;
    }

    /**
     * Allocate @p line (must not be resident), evicting the set's LRU
     * entry if the set is full.
     */
    Victim
    insert(std::uint64_t line, bool dirty)
    {
        Entry *base = setBase(line);
        // Way 0 of a set no insert has reached is still all zero; the
        // destructor clears exactly the sets recorded here.
        if (base[0].lastUse == 0)
            touchedSets.push_back(
                static_cast<std::uint32_t>(line % numSets));
        Entry *lru = nullptr;
        for (unsigned w = 0; w < numWays; ++w) {
            Entry &e = base[w];
            if (!e.valid) {
                e = Entry{true, dirty, line, ++useClock};
                return Victim{};
            }
            if (!lru || e.lastUse < lru->lastUse)
                lru = &e;
        }
        Victim v{true, lru->line, lru->dirty};
        *lru = Entry{true, dirty, line, ++useClock};
        return v;
    }

    /** Drop @p line if resident (invalidation / drop on LLC evict). */
    void
    invalidate(std::uint64_t line)
    {
        if (Entry *e = find(line))
            e->valid = false;
    }

    /** Clear the dirty bit (line was written back / downgraded). */
    void
    clean(std::uint64_t line)
    {
        if (Entry *e = find(line))
            e->dirty = false;
    }

    /** Number of valid entries (test support). */
    std::size_t
    population() const
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < std::size_t(numSets) * numWays; ++i)
            n += entries[i].valid ? 1 : 0;
        return n;
    }

  private:
    struct Entry
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t line = 0;
        std::uint64_t lastUse = 0;
    };

    /** All-zero bytes are an invalid entry, so zero-filled memory is
     *  an empty array without a single write. */
    static_assert(std::is_trivially_copyable_v<Entry>);

    Entry *
    setBase(std::uint64_t line)
    {
        return &entries[(line % numSets) * numWays];
    }

    Entry *
    find(std::uint64_t line)
    {
        Entry *base = setBase(line);
        for (unsigned w = 0; w < numWays; ++w) {
            if (base[w].valid && base[w].line == line)
                return &base[w];
        }
        return nullptr;
    }

    unsigned numSets;
    unsigned numWays;
    /** Zero-filled storage that construction never writes (see
     *  cache_array.cc), so a new array faults in no pages. */
    Entry *entries = nullptr;
    std::vector<std::uint32_t> touchedSets; //!< sets insert() reached
    std::uint64_t useClock = 0;
};

} // namespace asap

#endif // ASAP_COHERENCE_CACHE_ARRAY_HH
