/**
 * @file
 * Windowed counter sampler: every N cycles of the measured window,
 * snapshot the core's headline counters and occupancies into a
 * time-series, and accumulate log2-scaled latency histograms.
 *
 * Unlike the event tracer (obs/trace.hh) this data is *part of the
 * result*: `SimResult::telemetry` round-trips exactly through
 * report::toJson/fromJson (all fields are integers), so sweeps and
 * the farm's result cache carry it. A SimConfig with a non-zero
 * `sampleWindow` therefore serializes the window — telemetry-bearing
 * cells get their own cache keys, and cached cells replay the same
 * telemetry a fresh simulation would produce.
 */

#ifndef RAT_OBS_SAMPLER_HH
#define RAT_OBS_SAMPLER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rat::obs {

/**
 * Histogram over uint64 samples with power-of-two buckets: bucket i
 * counts values v with 2^i <= v < 2^(i+1) (v = 0 lands in bucket 0,
 * values beyond the last bucket clamp into it). Log scaling fits the
 * long-tailed latency distributions this records (miss latency,
 * episode length, issue-to-retire).
 */
class Log2Histogram
{
  public:
    static constexpr unsigned kBuckets = 24;

    void
    sample(std::uint64_t v)
    {
        unsigned bucket = 0;
        while (bucket + 1 < kBuckets && (v >> (bucket + 1)) != 0)
            ++bucket;
        ++buckets_[bucket];
        ++total_;
        sum_ += v;
    }

    std::uint64_t bucketCount(unsigned i) const { return buckets_[i]; }
    std::uint64_t totalCount() const { return total_; }
    std::uint64_t sum() const { return sum_; }
    double
    mean() const
    {
        return total_ ? static_cast<double>(sum_) /
                            static_cast<double>(total_)
                      : 0.0;
    }

    bool
    operator==(const Log2Histogram &o) const
    {
        return buckets_ == o.buckets_ && total_ == o.total_ &&
               sum_ == o.sum_;
    }

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/** One window snapshot. All counters are core-wide (summed threads). */
struct WindowSample {
    /** Window end cycle (exclusive); covers [cycle-window, cycle). */
    Cycle cycle = 0;
    /** Instructions committed during the window. */
    std::uint64_t committed = 0;
    /** Instructions executed during the window. */
    std::uint64_t executed = 0;
    /** Runahead-executed instructions during the window. */
    std::uint64_t raExecuted = 0;
    /** ROB / issue-queue / LSQ occupancy at the window boundary. */
    std::uint64_t rob = 0;
    std::uint64_t iq = 0;
    std::uint64_t lsq = 0;

    bool
    operator==(const WindowSample &o) const
    {
        return cycle == o.cycle && committed == o.committed &&
               executed == o.executed && raExecuted == o.raExecuted &&
               rob == o.rob && iq == o.iq && lsq == o.lsq;
    }
};

/** The telemetry block carried inside SimResult. */
struct TelemetryResult {
    /** False when sampling was off — then nothing serializes. */
    bool enabled = false;
    /** The configured sampling window, in cycles. */
    Cycle window = 0;
    std::vector<WindowSample> samples;
    /** Runahead episode lengths, in cycles. */
    Log2Histogram episodeCycles;
    /** Demand L2/memory miss latencies (issue to fill), in cycles. */
    Log2Histogram missLatency;
    /** Issue-to-retire latency of committed instructions, in cycles. */
    Log2Histogram issueToRetire;

    bool
    operator==(const TelemetryResult &o) const
    {
        return enabled == o.enabled && window == o.window &&
               samples == o.samples && episodeCycles == o.episodeCycles &&
               missLatency == o.missLatency &&
               issueToRetire == o.issueToRetire;
    }
};

/**
 * One state-digest sample: the FNV-1a digest of the core's canonical
 * state enumeration (src/check/digest.hh) at a window boundary. Like
 * WindowSample, `cycle` is the window end (exclusive).
 */
struct DigestSample {
    Cycle cycle = 0;
    std::uint64_t digest = 0;

    bool
    operator==(const DigestSample &o) const
    {
        return cycle == o.cycle && digest == o.digest;
    }
};

/**
 * The digest stream carried inside SimResult when `digestWindow` is
 * non-zero. Serialized alongside telemetry (digests change the result
 * payload, so — exactly like `sampleWindow` — a digest-bearing config
 * serializes its window and gets its own cache key). `ratsim verify`
 * compares these streams across the host-side mode grid.
 */
struct DigestTrack {
    /** The configured digest window, in cycles (0 = disabled). */
    Cycle window = 0;
    std::vector<DigestSample> samples;

    bool enabled() const { return window != 0; }

    bool
    operator==(const DigestTrack &o) const
    {
        return window == o.window && samples == o.samples;
    }
};

/**
 * The sampler the core drives during the measured window. The core
 * calls `boundary()` to learn the next window-end cycle, and
 * `sampleAt()` with its current cumulative counters when the clock
 * reaches (or skips across) that boundary; the sampler turns the
 * cumulative values into per-window deltas.
 */
class WindowSampler
{
  public:
    explicit WindowSampler(Cycle window) : window_(window) {}

    /** Arm the sampler at the start cycle of the measured window. */
    void
    reset(Cycle start)
    {
        nextAt_ = window_ ? cycleAfter(start, window_) : kNoCycle;
        prevCommitted_ = prevExecuted_ = prevRaExecuted_ = 0;
        result_ = TelemetryResult{};
        result_.enabled = window_ != 0;
        result_.window = window_;
    }

    /** The next cycle at which a sample is due (kNoCycle: never). */
    Cycle nextAt() const { return nextAt_; }

    /**
     * Record the sample for the window ending at nextAt(). The counter
     * arguments are cumulative since reset(); occupancies are
     * instantaneous.
     */
    void
    sampleAt(std::uint64_t committed, std::uint64_t executed,
             std::uint64_t ra_executed, std::uint64_t rob,
             std::uint64_t iq, std::uint64_t lsq)
    {
        WindowSample s;
        s.cycle = nextAt_;
        s.committed = committed - prevCommitted_;
        s.executed = executed - prevExecuted_;
        s.raExecuted = ra_executed - prevRaExecuted_;
        s.rob = rob;
        s.iq = iq;
        s.lsq = lsq;
        result_.samples.push_back(s);
        prevCommitted_ = committed;
        prevExecuted_ = executed;
        prevRaExecuted_ = ra_executed;
        nextAt_ = cycleAfter(nextAt_, window_);
    }

    void noteEpisode(std::uint64_t cycles)
    {
        result_.episodeCycles.sample(cycles);
    }
    void noteMissLatency(std::uint64_t cycles)
    {
        result_.missLatency.sample(cycles);
    }
    void noteIssueToRetire(std::uint64_t cycles)
    {
        result_.issueToRetire.sample(cycles);
    }

    /** The accumulated telemetry (copied into SimResult). */
    const TelemetryResult &result() const { return result_; }

  private:
    Cycle window_;
    Cycle nextAt_ = kNoCycle;
    std::uint64_t prevCommitted_ = 0;
    std::uint64_t prevExecuted_ = 0;
    std::uint64_t prevRaExecuted_ = 0;
    TelemetryResult result_;
};

} // namespace rat::obs

#endif // RAT_OBS_SAMPLER_HH
