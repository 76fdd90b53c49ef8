/**
 * @file
 * The optional runahead cache (Mutlu et al. [11], discussed and
 * measured insignificant in the paper's Section 3.3): tracks, per
 * thread, the INV status of lines written by pseudo-retired runahead
 * stores so that later runahead loads can inherit it. Bounded,
 * FIFO-evicted, cleared at runahead exit.
 *
 * Implementation: per thread, a FIFO ring of entries plus an
 * open-addressed (linear-probe) line -> ring-slot map, so write and
 * lookup are O(1) instead of a deque scan. Semantics are identical to
 * the original FIFO deque: a rewrite updates an entry in place without
 * refreshing its eviction order.
 */

#ifndef RAT_RUNAHEAD_RACACHE_HH
#define RAT_RUNAHEAD_RACACHE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace rat::runahead {

/** Per-thread FIFO cache of lines written by pseudo-retired stores. */
class RunaheadCache
{
  public:
    explicit RunaheadCache(unsigned lines_per_thread)
        : capacity_(lines_per_thread ? lines_per_thread : 1)
    {
        if (capacity_ > kMaxStructureEntries)
            fatal("runahead cache of %u lines exceeds the limit of %u",
                  capacity_, kMaxStructureEntries);
        // Power-of-two table at most half full keeps probe chains short.
        // The test halves the table rather than doubling the capacity,
        // so it cannot wrap; the limit keeps the table at 2^17 slots or
        // fewer.
        tableSize_ = 8;
        while (tableSize_ / 2 < capacity_)
            tableSize_ *= 2;
        for (Thread &t : threads_) {
            t.ring.resize(capacity_);
            t.table.assign(tableSize_, kEmptySlot);
        }
    }

    /** Record the status of a line written by a pseudo-retired store. */
    void
    write(ThreadId tid, Addr line, bool data_valid)
    {
        Thread &t = threads_[tid];
        const std::uint32_t slot = findSlot(t, line);
        if (t.table[slot] != kEmptySlot) {
            t.ring[t.table[slot]].valid = data_valid; // rewrite in place
            return;
        }
        if (t.count == capacity_) {
            eraseKey(t, t.ring[t.head].line); // FIFO-evict the oldest
            t.head = next(t.head);
            --t.count;
        }
        const std::uint32_t pos = wrap(t.head + t.count);
        t.ring[pos] = {line, data_valid};
        // The eviction above may have shifted table entries; re-probe.
        t.table[findSlot(t, line)] = pos;
        ++t.count;
    }

    /**
     * Look up a line. @return true if present, with the stored data
     * validity in @p data_valid.
     */
    bool
    lookup(ThreadId tid, Addr line, bool &data_valid) const
    {
        const Thread &t = threads_[tid];
        const std::uint32_t slot = findSlot(t, line);
        if (t.table[slot] == kEmptySlot)
            return false;
        data_valid = t.ring[t.table[slot]].valid;
        return true;
    }

    /** Drop a thread's entries (runahead exit). */
    void
    clear(ThreadId tid)
    {
        Thread &t = threads_[tid];
        if (t.count == 0)
            return;
        std::fill(t.table.begin(), t.table.end(), kEmptySlot);
        t.head = 0;
        t.count = 0;
    }

    /** Lines currently held by a thread (tests and introspection). */
    unsigned occupancy(ThreadId tid) const { return threads_[tid].count; }

    /** Line capacity per thread. */
    unsigned capacity() const { return capacity_; }

  private:
    struct Entry {
        Addr line = 0;
        bool valid = false;
    };

    struct Thread {
        std::vector<Entry> ring;          ///< FIFO payload storage
        std::vector<std::uint32_t> table; ///< line -> ring index
        std::uint32_t head = 0;           ///< ring index of the oldest
        std::uint32_t count = 0;
    };

    static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

    std::uint32_t next(std::uint32_t pos) const { return wrap(pos + 1); }
    std::uint32_t
    wrap(std::uint32_t pos) const
    {
        return pos >= capacity_ ? pos - capacity_ : pos;
    }

    std::uint32_t
    home(Addr line) const
    {
        std::uint64_t h = line * 0x9E3779B97F4A7C15ull;
        h ^= h >> 32;
        return static_cast<std::uint32_t>(h & (tableSize_ - 1));
    }

    /** Probe slot of @p line: its entry, or the empty slot to fill. */
    std::uint32_t
    findSlot(const Thread &t, Addr line) const
    {
        std::uint32_t i = home(line);
        while (t.table[i] != kEmptySlot && t.ring[t.table[i]].line != line)
            i = (i + 1) & (tableSize_ - 1);
        return i;
    }

    /** Open-addressing erase with backward shift (Knuth 6.4 R). */
    void
    eraseKey(Thread &t, Addr line)
    {
        std::uint32_t i = findSlot(t, line);
        RAT_ASSERT(t.table[i] != kEmptySlot, "evicting absent line");
        std::uint32_t j = i;
        while (true) {
            t.table[i] = kEmptySlot;
            while (true) {
                j = (j + 1) & (tableSize_ - 1);
                if (t.table[j] == kEmptySlot)
                    return;
                const std::uint32_t k = home(t.ring[t.table[j]].line);
                // If the home slot k lies cyclically in (i, j], the
                // entry is already reachable from its home; keep it.
                const bool reachable =
                    i <= j ? (i < k && k <= j) : (i < k || k <= j);
                if (!reachable)
                    break;
            }
            t.table[i] = t.table[j];
            i = j;
        }
    }

    std::uint32_t capacity_;
    std::uint32_t tableSize_ = 0;
    std::array<Thread, kMaxThreads> threads_{};
};

} // namespace rat::runahead

#endif // RAT_RUNAHEAD_RACACHE_HH
