/**
 * @file
 * Set-associative cache model with true-LRU replacement and
 * fill-latency-aware lines.
 *
 * The hierarchy is queried functionally at access time: an access walks
 * the levels, determines where it hits, installs lines on the way back,
 * and returns the completion cycle. Outstanding-fill merging is modelled
 * through each line's `readyAt` cycle — an access to a line that is still
 * being filled completes when the fill does, which is exactly MSHR
 * merge behaviour. A separate MshrFile bounds the number of distinct
 * outstanding line fills per cache (structural back-pressure).
 */

#ifndef RAT_MEM_CACHE_HH
#define RAT_MEM_CACHE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace rat::check {
class Mutator;
}

namespace rat::mem {

/** Geometry and timing of one cache level. */
struct CacheConfig {
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned ways = 4;
    unsigned lineBytes = 64;
    /** Access (hit) latency in cycles. */
    unsigned latency = 1;
    /** Maximum distinct outstanding line fills. */
    unsigned mshrs = 32;
};

/** Result of a single-level lookup. */
enum class LookupResult : std::uint8_t {
    Hit,        ///< present and filled
    HitPending, ///< present but still being filled (merge with fill)
    Miss        ///< not present
};

/**
 * One cache level. Tag/LRU state only; no data storage (the simulator is
 * timing-only).
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Probe for a line without modifying replacement state.
     * @param addr Byte address.
     * @param now  Current cycle (classifies Hit vs HitPending).
     */
    LookupResult probe(Addr addr, Cycle now) const;

    /**
     * Access a line: on presence, update LRU and return Hit/HitPending
     * with the fill-completion cycle in @p ready_at (now for plain hits).
     * On a miss, no state changes; callers install the line explicitly.
     */
    LookupResult access(Addr addr, Cycle now, Cycle &ready_at);

    /**
     * Install a line that will finish filling at @p ready_at, evicting the
     * LRU way of its set if needed. Returns the evicted line address in
     * @p evicted (valid iff the return value is true).
     */
    bool install(Addr addr, Cycle now, Cycle ready_at, Addr &evicted);

    /**
     * install() with a caller-held slot hint. A line sits in at most
     * one way, and a slot's tag names its set, so when slot @p hint
     * holds @p addr's line, install() would refresh exactly that slot:
     * this does the same refresh without the way-walk. Otherwise it is
     * install(), and @p hint is set to the slot the line now occupies.
     * Any hint value is safe; the hint lives with the caller, so the
     * cache's visited state does not grow.
     */
    bool
    installHinted(Addr addr, Cycle now, Cycle ready_at, Addr &evicted,
                  std::size_t &hint)
    {
        if (hint < lines_.size()) {
            Line &l = lines_[hint];
            if (l.valid && l.tag == tagOf(addr)) {
                l.lastUse = now;
                l.readyAt = std::min(l.readyAt, ready_at);
                return false;
            }
        }
        return installSlot(addr, now, ready_at, evicted, hint);
    }

    /** Invalidate a line if present (backing store for eviction tests). */
    void invalidate(Addr addr);

    /** Remove all lines. */
    void flushAll();

    /** Line-aligned address. */
    Addr lineAlign(Addr addr) const { return addr & ~Addr{lineMask_}; }

    /** Number of sets. */
    unsigned numSets() const { return numSets_; }
    /** Associativity. */
    unsigned numWays() const { return config_.ways; }
    /** Hit latency. */
    unsigned latency() const { return config_.latency; }
    /** Line size in bytes. */
    unsigned lineBytes() const { return config_.lineBytes; }
    /** Config this cache was built from. */
    const CacheConfig &config() const { return config_; }

    // --- statistics ------------------------------------------------------
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    /** Reset statistics (not contents). */
    void resetStats();

    /**
     * Checkpoint enumeration (sim/checkpoint.hh): the one template
     * below drives both encode (the IO reads every field) and decode
     * (the IO assigns it), so the two directions cannot drift apart.
     * Covers the full replacement state plus the statistics counters —
     * a restored cache is indistinguishable from the walked original,
     * including in state digests. The leading size marker makes a
     * geometry mismatch a decode error instead of silent corruption.
     */
    template <typename IO>
    void
    ckptVisit(IO &io)
    {
        io.size(lines_.size());
        for (Line &l : lines_) {
            io.scalar(l.tag);
            io.scalar(l.valid);
            io.scalar(l.lastUse);
            io.scalar(l.readyAt);
        }
        io.scalar(hits_);
        io.scalar(misses_);
        io.scalar(evictions_);
    }

  private:
    struct Line {
        Addr tag = 0;
        bool valid = false;
        Cycle lastUse = 0;
        Cycle readyAt = 0;
    };

    unsigned setIndex(Addr addr) const
    {
        return static_cast<unsigned>((addr >> lineShift_) & setMask_);
    }
    Addr tagOf(Addr addr) const { return addr >> lineShift_; }

    /** First line of the set @p addr maps to (way-walk base). */
    const Line *setBase(Addr addr) const
    {
        return &lines_[static_cast<std::size_t>(setIndex(addr)) *
                       config_.ways];
    }
    Line *setBase(Addr addr)
    {
        return &lines_[static_cast<std::size_t>(setIndex(addr)) *
                       config_.ways];
    }

    const Line *findLine(Addr addr) const;
    Line *findLine(Addr addr);

    /** install(), reporting the slot the line ends up in. */
    bool installSlot(Addr addr, Cycle now, Cycle ready_at, Addr &evicted,
                     std::size_t &slot);

    CacheConfig config_;
    unsigned numSets_;
    unsigned lineShift_;
    std::uint64_t lineMask_;
    std::uint64_t setMask_;
    std::vector<Line> lines_; // numSets_ * ways, set-major

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

/**
 * Bounded set of outstanding line fills (miss status holding registers).
 *
 * Tracks outstanding line addresses with their completion cycles;
 * accesses to an already-outstanding line merge. Full MSHRs reject new
 * misses, which the core turns into issue back-pressure.
 *
 * Implementation: an insertion-ordered entry list (bounded by the
 * capacity) with the minimum completion cycle tracked incrementally,
 * plus an open-addressed line-address index for O(1) lookups. Expiry is
 * lazy but O(1) in the common case — nothing can have expired while
 * `now` is before the tracked minimum, which replaces the former
 * remove_if scan on every query. The minimum also feeds the core's
 * `nextEventCycle()` (earliest cycle a fill can unblock anything).
 *
 * Semantics are pinned by the cache/MSHR tests and must match the
 * original list exactly, including the corner where the same line is
 * allocated twice (an L1 line evicted while its fill is in flight, then
 * re-missed): both records count toward occupancy and expire on their
 * own completion cycles, and lookups return the oldest surviving
 * record.
 */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries);

    /** True if a fill for this line is outstanding at @p now. */
    bool isOutstanding(Addr line_addr, Cycle now) const;

    /** Completion cycle of an outstanding fill; kNoCycle if none. */
    Cycle completionOf(Addr line_addr, Cycle now) const;

    /** True if a new fill can be accepted at @p now. */
    bool canAllocate(Cycle now) const;

    /** Record a new outstanding fill. Caller must check canAllocate. */
    void allocate(Addr line_addr, Cycle now, Cycle complete_at);

    /** Capacity. */
    unsigned entries() const { return entries_; }

    /** Outstanding fills at @p now (lazy expiry). */
    unsigned occupancy(Cycle now) const;

    /**
     * Completion cycle of the earliest outstanding fill at @p now;
     * kNoCycle when none are outstanding.
     */
    Cycle earliestCompletion(Cycle now) const;

    /**
     * Self-check: the line-address index, the entry list and the
     * tracked minimum must agree — every occupied table slot points at
     * the oldest live record of its line, every live record is
     * reachable through the index, and `minComplete_` is exactly the
     * minimum completion cycle (kNoCycle when empty). Returns false
     * and fills @p why with a diagnostic on the first violation.
     */
    bool auditIndexConsistent(std::string *why) const;

  private:
    /** Test hook (MutationCheck) — corrupts index/minimum state. */
    friend class ::rat::check::Mutator;
    void expire(Cycle now) const;
    /** Rebuild the line index and tracked minimum from active_. */
    void reindex() const;
    /** Probe slot of @p line: its entry, or the empty slot to fill. */
    std::uint32_t findSlot(Addr line_addr) const;

    struct Entry {
        Addr lineAddr;
        Cycle completeAt;
    };

    static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

    unsigned entries_;
    std::uint32_t tableSize_; ///< power-of-two, >= 2 * entries_
    mutable std::vector<Entry> active_; ///< live fills, insertion order
    /** line address -> index in active_ of its oldest live record. */
    mutable std::vector<std::uint32_t> table_;
    mutable Cycle minComplete_ = kNoCycle;
};

} // namespace rat::mem

#endif // RAT_MEM_CACHE_HH
