/**
 * @file
 * Deterministic state digests: an incremental FNV-1a hash over a
 * canonical enumeration of the core's architectural and key
 * microarchitectural state, sampled every `--digest-window` cycles
 * into the obs telemetry stream.
 *
 * The enumeration is *mode-invariant by construction*: it visits only
 * state that is bit-identical across the host-side implementation grid
 * (cycle-skip on/off, prewarm restored from a checkpoint) at matched
 * window boundaries. That means no host-clock values (a skipped span
 * samples with the clock still at the span start), no physical-register
 * *numbers* (which free register an allocation gets is an
 * implementation detail, not behaviour; the maps are digested by entry
 * kind and producer readiness instead, and checkpoints embed this
 * digest, so the enumeration stays fixed), no per-cycle integrals
 * (skipTo integrates them span-at-once; they are the entries flagged
 * `perCycle` in core::kThreadStatsCounters), and no issue-queue slot
 * indices. The three counter structs are digested through their
 * `CounterField` tables (common/stats.hh), in declaration order. Two runs of the same configuration in any mode must
 * therefore produce byte-identical digest streams — and `ratsim
 * verify` bisects the first window where they do not.
 */

#ifndef RAT_CHECK_DIGEST_HH
#define RAT_CHECK_DIGEST_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "obs/sampler.hh"

namespace rat::core {
class SmtCore;
}

namespace rat::check {

/**
 * The canonical state enumeration. A class (not free functions) so it
 * can be a friend of SmtCore; stateless.
 */
class StateHasher
{
  public:
    /** FNV-1a digest of the core's current canonical state. */
    static std::uint64_t digest(const core::SmtCore &core);

    /**
     * The same enumeration rendered as labelled text, one field per
     * line — the state dump `ratsim verify` prints for both sides of
     * the first divergent cycle.
     */
    static std::string describe(const core::SmtCore &core);

  private:
    /**
     * The single enumeration both entry points share (friendship with
     * SmtCore covers member templates). Instantiated only in
     * digest.cc, once per sink type.
     */
    template <typename Sink>
    static void visit(Sink &sink, const core::SmtCore &core);
};

/**
 * Collects a digest stream during the measured window. Driven by the
 * core exactly like the telemetry WindowSampler: `nextAt()` names the
 * next window-end boundary, `sampleAt()` records the digest when the
 * clock reaches (or skips across) it.
 */
class DigestCollector
{
  public:
    explicit DigestCollector(Cycle window) : window_(window) {}

    /** Arm at the start cycle of the measured window. */
    void
    reset(Cycle start)
    {
        nextAt_ = window_ ? start + window_ : kNoCycle;
        track_ = obs::DigestTrack{};
        track_.window = window_;
        capturedDump_.clear();
    }

    /** The next boundary at which a digest is due (kNoCycle if off). */
    Cycle nextAt() const { return nextAt_; }

    /** Digest the core for the window ending at nextAt(). */
    void sampleAt(const core::SmtCore &core);

    /**
     * Also capture a full state dump at the boundary @p cycle (the
     * bisector's final pass). kNoCycle disables.
     */
    void setCaptureAt(Cycle cycle) { captureAt_ = cycle; }
    const std::string &capturedDump() const { return capturedDump_; }

    /** The accumulated digest stream (copied into SimResult). */
    const obs::DigestTrack &track() const { return track_; }

  private:
    Cycle window_;
    Cycle nextAt_ = kNoCycle;
    Cycle captureAt_ = kNoCycle;
    obs::DigestTrack track_;
    std::string capturedDump_;
};

} // namespace rat::check

#endif // RAT_CHECK_DIGEST_HH
