/**
 * @file
 * Functional contents of the NVM devices.
 *
 * Tracks, per line, the token of the most recent write that actually
 * reached the media. This is the state a crash preserves (together
 * with whatever the ADR domain flushes) and the state the recovery
 * checker inspects.
 */

#ifndef ASAP_MEM_NVM_CONTENTS_HH
#define ASAP_MEM_NVM_CONTENTS_HH

#include <cstdint>
#include <unordered_map>

namespace asap
{

/** Line-granular functional NVM state. */
class NvmContents
{
  public:
    /** Write @p value to @p line (a media write, post-WPQ). */
    void
    write(std::uint64_t line, std::uint64_t value)
    {
        lines_[line] = value;
    }

    /** Read the current media value (0 = never written). */
    std::uint64_t
    read(std::uint64_t line) const
    {
        auto it = lines_.find(line);
        return it == lines_.end() ? 0 : it->second;
    }

    /** True once the line has been written at least once. */
    bool
    present(std::uint64_t line) const
    {
        return lines_.count(line) != 0;
    }

    /** All line values (for the recovery checker). */
    const std::unordered_map<std::uint64_t, std::uint64_t> &
    all() const
    {
        return lines_;
    }

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> lines_;
};

} // namespace asap

#endif // ASAP_MEM_NVM_CONTENTS_HH
