/** @file Tests for the windowed sampler and log2 histograms. */

#include <gtest/gtest.h>

#include "obs/sampler.hh"

namespace rat::obs {
namespace {

TEST(Log2Histogram, BucketsByPowerOfTwo)
{
    Log2Histogram h;
    h.sample(0); // 0 lands in bucket 0
    h.sample(1); // [1,2) -> bucket 0
    h.sample(2); // [2,4) -> bucket 1
    h.sample(3);
    h.sample(4); // [4,8) -> bucket 2
    h.sample(1023); // [512,1024) -> bucket 9
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.totalCount(), 6u);
    EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 1023);
    EXPECT_DOUBLE_EQ(h.mean(), 1033.0 / 6.0);
}

TEST(Log2Histogram, HugeValuesClampIntoLastBucket)
{
    Log2Histogram h;
    h.sample(~std::uint64_t{0});
    EXPECT_EQ(h.bucketCount(Log2Histogram::kBuckets - 1), 1u);
}

TEST(Log2Histogram, EmptyMeanIsZero)
{
    EXPECT_DOUBLE_EQ(Log2Histogram{}.mean(), 0.0);
}

TEST(WindowSampler, TurnsCumulativeCountersIntoDeltas)
{
    WindowSampler s(100);
    s.reset(1000);
    EXPECT_TRUE(s.result().enabled);
    EXPECT_EQ(s.nextAt(), 1100u);

    s.sampleAt(/*committed=*/50, /*executed=*/80, /*ra=*/10,
               /*rob=*/32, /*iq=*/12, /*lsq=*/8);
    EXPECT_EQ(s.nextAt(), 1200u);
    s.sampleAt(/*committed=*/120, /*executed=*/200, /*ra=*/10,
               /*rob=*/16, /*iq=*/4, /*lsq=*/2);

    const TelemetryResult &r = s.result();
    ASSERT_EQ(r.samples.size(), 2u);
    EXPECT_EQ(r.samples[0].cycle, 1100u);
    EXPECT_EQ(r.samples[0].committed, 50u);
    EXPECT_EQ(r.samples[0].executed, 80u);
    EXPECT_EQ(r.samples[0].raExecuted, 10u);
    EXPECT_EQ(r.samples[0].rob, 32u);
    // Second window: deltas, not cumulative values.
    EXPECT_EQ(r.samples[1].cycle, 1200u);
    EXPECT_EQ(r.samples[1].committed, 70u);
    EXPECT_EQ(r.samples[1].executed, 120u);
    EXPECT_EQ(r.samples[1].raExecuted, 0u);
    // Occupancies stay instantaneous.
    EXPECT_EQ(r.samples[1].rob, 16u);
}

TEST(WindowSampler, ZeroWindowStaysDisarmed)
{
    WindowSampler s(0);
    s.reset(500);
    EXPECT_FALSE(s.result().enabled);
    EXPECT_EQ(s.nextAt(), kNoCycle);
}

TEST(WindowSampler, WindowEndsSaturateInsteadOfWrapping)
{
    // start + window used to wrap: a 2^64-1 window ended one cycle
    // before its start, so every tick sampled and the window-end
    // cycles ran backwards. A window past the clock's range never ends.
    WindowSampler forever(kNoCycle);
    forever.reset(10100);
    EXPECT_EQ(forever.nextAt(), kNoCycle);

    const Cycle half = Cycle{1} << 63;
    WindowSampler s(half);
    s.reset(100);
    EXPECT_EQ(s.nextAt(), half + 100);
    s.sampleAt(1, 1, 0, 0, 0, 0);
    EXPECT_EQ(s.nextAt(), kNoCycle);
    EXPECT_EQ(s.result().samples.at(0).cycle, half + 100);
}

TEST(WindowSampler, ResetDropsPriorState)
{
    WindowSampler s(10);
    s.reset(0);
    s.sampleAt(5, 5, 0, 1, 1, 1);
    s.noteEpisode(100);
    s.reset(50); // warmup -> measure boundary
    EXPECT_TRUE(s.result().samples.empty());
    EXPECT_EQ(s.result().episodeCycles.totalCount(), 0u);
    EXPECT_EQ(s.nextAt(), 60u);
    // Cumulative baselines were rearmed: a post-reset sample must not
    // subtract pre-reset counters.
    s.sampleAt(3, 4, 0, 0, 0, 0);
    EXPECT_EQ(s.result().samples[0].committed, 3u);
}

} // namespace
} // namespace rat::obs
