/**
 * @file
 * Low-overhead event tracer for cycle-level timelines.
 *
 * Design constraints (DESIGN.md "Observability"):
 *  - Observation only: recording an event must never feed back into
 *    simulation state. The tracer has no reference to the core; the
 *    instrumented components push plain integers into it.
 *  - Near-zero cost when off: every instrumentation site is gated on a
 *    category mask the component caches locally (0 when no tracer is
 *    attached), so the disabled path is one always-not-taken test of a
 *    hot register against an immediate.
 *  - Bounded memory: each track is a fixed-capacity ring that
 *    overwrites its oldest event; a long run keeps the *newest* window
 *    of activity and reports how much it dropped.
 *
 * Export is the Chrome trace-event JSON format (the `traceEvents`
 * array form), loadable in Perfetto / chrome://tracing. One timeline
 * track per hardware thread, plus a counter track for MSHR occupancy
 * and a track for cycle-skip spans. Timestamps map 1 simulated cycle
 * to 1 microsecond.
 */

#ifndef RAT_OBS_TRACE_HH
#define RAT_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace rat::obs {

/** Trace categories (bitmask). */
enum Category : unsigned {
    kCatFetch = 1u << 0,    ///< fetch groups
    kCatSched = 1u << 1,    ///< rename/issue/retire + cycle-skip spans
    kCatMem = 1u << 2,      ///< cache-miss durations + MSHR occupancy
    kCatRunahead = 1u << 3, ///< runahead episodes
    kCatAll = kCatFetch | kCatSched | kCatMem | kCatRunahead,
};

/**
 * Parse a comma-separated category list ("fetch,sched,mem,runahead",
 * or "all") into a mask. Returns false on an unknown name (leaving
 * @p mask untouched).
 */
bool parseTraceCategories(const std::string &text, unsigned &mask);

/** The category names accepted by parseTraceCategories, for diagnostics. */
const char *traceCategoryNames();

/** What an event records; determines its exported name and args. */
enum class EventKind : std::uint8_t {
    FetchGroup,      ///< span, a = first pc, b = ops fetched
    Rename,          ///< instant, a = pc
    Issue,           ///< span issue->writeback, a = pc
    Retire,          ///< instant, a = pc
    MemMiss,         ///< span access->fill, a = line addr, b = level
    MshrOccupancy,   ///< counter, a/b/c = L1I/L1D/L2 occupancy
    RunaheadEpisode, ///< span enter->exit, a = trigger pc,
                     ///< b = pseudo-retired, c = useless verdict
    CycleSkip,       ///< span of fast-forwarded quiescent cycles
};

/** One recorded event. Compact and POD: rings copy these around. */
struct TraceEvent {
    Cycle begin = 0;
    Cycle end = 0; ///< == begin for instants and counters
    EventKind kind = EventKind::FetchGroup;
    std::uint8_t tid = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
};

/** Fixed-capacity overwrite-oldest event ring. */
class EventRing
{
  public:
    explicit EventRing(std::size_t capacity) : cap_(capacity)
    {
        buf_.reserve(capacity);
    }

    void
    push(const TraceEvent &e)
    {
        if (buf_.size() < cap_) {
            buf_.push_back(e);
        } else {
            buf_[static_cast<std::size_t>(pushed_ % cap_)] = e;
        }
        ++pushed_;
    }

    /** Events currently held (≤ capacity). */
    std::size_t size() const { return buf_.size(); }
    /** Total events ever pushed. */
    std::uint64_t pushed() const { return pushed_; }
    /** Events lost to overwrite. */
    std::uint64_t
    dropped() const
    {
        return pushed_ > buf_.size() ? pushed_ - buf_.size() : 0;
    }

    /**
     * @p i-th surviving event in record order (0 = oldest surviving).
     */
    const TraceEvent &
    at(std::size_t i) const
    {
        const std::size_t start =
            buf_.size() < cap_ ? 0
                               : static_cast<std::size_t>(pushed_ % cap_);
        return buf_[(start + i) % buf_.size()];
    }

    void
    clear()
    {
        buf_.clear();
        pushed_ = 0;
    }

  private:
    std::size_t cap_;
    std::vector<TraceEvent> buf_;
    std::uint64_t pushed_ = 0;
};

/**
 * The tracer: one ring per hardware-thread track plus one shared ring
 * for the core-level tracks (MSHR counters, cycle-skip spans).
 */
class Tracer
{
  public:
    /**
     * @param categories    Mask of Category bits to record.
     * @param num_threads   Hardware threads (one track each).
     * @param ring_capacity Events retained per track.
     */
    Tracer(unsigned categories, unsigned num_threads,
           std::size_t ring_capacity = kDefaultRingCapacity);

    /** Enabled-category mask; components cache this. */
    unsigned mask() const { return mask_; }

    /** Record onto thread @p tid's track. */
    void
    record(ThreadId tid, EventKind kind, Cycle begin, Cycle end,
           std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0)
    {
        threadRings_[tid].push(TraceEvent{begin, end, kind, tid, a, b, c});
    }

    /** Record onto the core-level track (counters, skip spans). */
    void
    recordCore(EventKind kind, Cycle begin, Cycle end,
               std::uint64_t a = 0, std::uint64_t b = 0,
               std::uint64_t c = 0)
    {
        coreRing_.push(TraceEvent{begin, end, kind, 0, a, b, c});
    }

    /** Drop everything recorded so far (the warmup→measure boundary). */
    void clear();

    /** Events lost to ring overwrite, across all tracks. */
    std::uint64_t droppedEvents() const;
    /** Events currently retained, across all tracks. */
    std::uint64_t retainedEvents() const;

    const EventRing &threadRing(ThreadId tid) const
    {
        return threadRings_[tid];
    }
    const EventRing &coreRing() const { return coreRing_; }
    unsigned numThreads() const
    {
        return static_cast<unsigned>(threadRings_.size());
    }

    /** Serialize everything as Chrome trace-event JSON. */
    std::string toChromeJson() const;

    /**
     * Write toChromeJson() to @p path ("-" = stdout). Returns false
     * and fills @p error on I/O failure.
     */
    bool writeTo(const std::string &path, std::string *error) const;

    static constexpr std::size_t kDefaultRingCapacity = 1u << 15;

  private:
    unsigned mask_;
    std::vector<EventRing> threadRings_;
    EventRing coreRing_;
};

} // namespace rat::obs

#endif // RAT_OBS_TRACE_HH
