/**
 * @file
 * Measurement-methodology tests: the fixed-window continuous-execution
 * substitute for FAME [19] must represent all threads, be deterministic,
 * and be independent of harness parallelism.
 */

#include <gtest/gtest.h>

#include "sim/campaign.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

SimConfig
quick()
{
    SimConfig cfg;
    cfg.prewarmInsts = 150000;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 10000;
    return cfg;
}

TEST(Methodology, EveryThreadIsMeasuredOverTheFullWindow)
{
    Simulator s(quick(), {"art", "gzip"});
    const SimResult r = s.run();
    for (const ThreadResult &t : r.threads) {
        // FAME property: no thread's measurement ends early.
        EXPECT_EQ(t.core.normalCycles + t.core.runaheadCycles, r.cycles)
            << t.program;
    }
}

TEST(Methodology, ParallelAndSerialGroupRunsAgree)
{
    CampaignSpec spec;
    spec.base = quick();
    spec.techniques = {techniqueOf(core::PolicyKind::Rat)};
    spec.groups = {WorkloadGroup::MEM2};
    spec.parallelism = 1;
    const GroupMetrics a = groupMetrics(spec, runCampaign(spec))[0][0];
    spec.parallelism = 8;
    const GroupMetrics b = groupMetrics(spec, runCampaign(spec))[0][0];

    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].committedTotal(),
                  b.results[i].committedTotal())
            << i;
    }
    EXPECT_DOUBLE_EQ(a.meanThroughput, b.meanThroughput);
}

TEST(Methodology, LongerWindowsConvergeTowardStableThroughput)
{
    SimConfig short_cfg = quick();
    short_cfg.measureCycles = 8000;
    SimConfig long_cfg = quick();
    long_cfg.measureCycles = 64000;

    Simulator s1(short_cfg, {"gzip", "bzip2"});
    Simulator s2(long_cfg, {"gzip", "bzip2"});
    const double t1 = s1.run().throughputEq1();
    const double t2 = s2.run().throughputEq1();
    // Statistically stationary traces: windows within ~30% of each other.
    EXPECT_NEAR(t1, t2, 0.3 * t2);
}

TEST(Methodology, WarmupIsExcludedFromMeasurement)
{
    // With and without timed warm-up, measured cycles equal the window.
    SimConfig no_warm = quick();
    no_warm.warmupCycles = 0;
    Simulator s(no_warm, {"gzip"});
    const SimResult r = s.run();
    EXPECT_EQ(r.cycles, no_warm.measureCycles);
}

TEST(Methodology, SeedsGiveIndependentButComparableRuns)
{
    std::vector<double> throughputs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SimConfig cfg = quick();
        cfg.seed = seed;
        Simulator s(cfg, {"art", "gzip"});
        throughputs.push_back(s.run().throughputEq1());
    }
    // All runs in a sane, mutually consistent band.
    for (double t : throughputs) {
        EXPECT_GT(t, 0.2 * throughputs[0]);
        EXPECT_LT(t, 5.0 * throughputs[0]);
    }
}

} // namespace
} // namespace rat::sim
