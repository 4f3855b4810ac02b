/**
 * @file
 * XPBuffer: the controller-side line cache of Optane DIMMs.
 *
 * Section V-A justifies ASAP's read-modify-write undo creation partly
 * because "XPBuffer in Intel Optane Persistent Memory caches most
 * recently accessed lines. [The undo read] would mostly hit in this
 * cache." We model it as a small fully-associative LRU set of line
 * addresses that makes undo-snapshot reads cheap when they hit.
 */

#ifndef ASAP_MEM_XPBUFFER_HH
#define ASAP_MEM_XPBUFFER_HH

#include <cstdint>
#include <list>
#include <unordered_map>

namespace asap
{

/** Fully-associative LRU recency tracker for media lines. */
class XpBuffer
{
  public:
    explicit XpBuffer(unsigned capacity) : cap(capacity) {}

    /** Record an access to @p line; evicts the LRU line when full. */
    void
    touch(std::uint64_t line)
    {
        if (cap == 0)
            return;
        auto it = index.find(line);
        if (it != index.end()) {
            lru.erase(it->second);
        } else if (lru.size() >= cap) {
            index.erase(lru.back());
            lru.pop_back();
        }
        lru.push_front(line);
        index[line] = lru.begin();
    }

    /** True if @p line is currently resident. */
    bool
    hit(std::uint64_t line) const
    {
        return index.count(line) != 0;
    }

    std::size_t size() const { return lru.size(); }

  private:
    unsigned cap;
    std::list<std::uint64_t> lru;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        index;
};

} // namespace asap

#endif // ASAP_MEM_XPBUFFER_HH
