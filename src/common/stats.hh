/**
 * @file
 * Lightweight statistics primitives: counters, running means, and
 * fixed-bucket histograms, plus formatting helpers for bench output.
 *
 * These deliberately avoid any global registry: each simulator component
 * owns its stats and exposes them through accessors, which keeps multiple
 * simulator instances (e.g. parameter sweeps in one process) independent.
 */

#ifndef RAT_COMMON_STATS_HH
#define RAT_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rat {

/**
 * One member of a plain counter struct and the key it is reported
 * under. Each counter struct (every member a std::uint64_t) keeps a
 * table of these next to its declaration, in declaration order; the
 * JSON codec, the sampled merge and the state digest loop over that
 * table instead of naming the members again.
 */
template <typename Stats>
struct CounterField {
    const char *name;
    std::uint64_t Stats::*member;
    /** Integrated every cycle; the state digest skips it. */
    bool perCycle = false;
};

/** Does @p table list as many counters as Stats has members? */
template <typename Stats, std::size_t N>
constexpr bool
coversEveryMember(const CounterField<Stats> (&)[N])
{
    return N * sizeof(std::uint64_t) == sizeof(Stats);
}

/**
 * Running mean/min/max accumulator over double-valued samples.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    sample(double v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }
    /** Sum of all samples. */
    double sum() const { return sum_; }
    /** Arithmetic mean, or 0 when empty. */
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    /** Smallest sample, or 0 when empty. */
    double min() const { return count_ ? min_ : 0.0; }
    /** Largest sample, or 0 when empty. */
    double max() const { return count_ ? max_ : 0.0; }

    /** Discard all samples. */
    void reset() { *this = RunningStat(); }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Histogram over uint64 samples with uniform-width buckets plus an
 * overflow bucket.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket (must be > 0).
     * @param num_buckets  Number of regular buckets before overflow.
     */
    Histogram(std::uint64_t bucket_width, unsigned num_buckets);

    /** Record one sample. */
    void sample(std::uint64_t v);

    /** Count in regular bucket @p i. */
    std::uint64_t bucketCount(unsigned i) const { return buckets_.at(i); }
    /** Count of samples beyond the last regular bucket. */
    std::uint64_t overflowCount() const { return overflow_; }
    /** Total samples recorded. */
    std::uint64_t totalCount() const { return total_; }
    /** Number of regular buckets. */
    unsigned numBuckets() const
    {
        return static_cast<unsigned>(buckets_.size());
    }
    /** Mean of all recorded samples (exact, tracked separately). */
    double mean() const { return total_ ? sumD_ / total_ : 0.0; }

    /** Discard all samples. */
    void reset();

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    double sumD_ = 0.0;
};

/**
 * Harmonic mean of a set of positive ratios; returns 0 for an empty set
 * or if any ratio is non-positive. Used by the fairness metric (Eq. 2).
 */
double harmonicMean(const std::vector<double> &values);

/** Format a double with fixed precision into a std::string. */
std::string formatDouble(double v, int precision = 3);

} // namespace rat

#endif // RAT_COMMON_STATS_HH
