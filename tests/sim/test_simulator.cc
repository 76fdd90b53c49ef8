/** @file Tests for the Simulator wrapper and the group-grid calls. */

#include <gtest/gtest.h>

#include "sim/campaign.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

using core::PolicyKind;

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.warmupCycles = 3000;
    cfg.measureCycles = 12000;
    return cfg;
}

TEST(Simulator, RunsAndReportsPerThread)
{
    SimConfig cfg = quickConfig();
    Simulator sim(cfg, {"gzip", "art"});
    const SimResult r = sim.run();
    EXPECT_EQ(r.cycles, cfg.measureCycles);
    ASSERT_EQ(r.threads.size(), 2u);
    EXPECT_EQ(r.threads[0].program, "gzip");
    EXPECT_GT(r.threads[0].ipc, 0.0);
    EXPECT_GT(r.threads[1].ipc, 0.0);
    EXPECT_GT(r.totalIpc(), r.throughputEq1()); // n=2: total = 2 * eq1
}

TEST(Simulator, MemProgramHasHigherMpki)
{
    SimConfig cfg = quickConfig();
    Simulator ilp(cfg, {"gzip"});
    Simulator mem_bound(cfg, {"art"});
    const auto r_ilp = ilp.run();
    const auto r_mem = mem_bound.run();
    EXPECT_LT(r_ilp.threads[0].l2Mpki, r_mem.threads[0].l2Mpki);
}

TEST(Simulator, SeedChangesResultsSlightly)
{
    SimConfig a = quickConfig();
    SimConfig b = quickConfig();
    b.seed = 999;
    Simulator sa(a, {"gzip"});
    Simulator sb(b, {"gzip"});
    const auto ra = sa.run();
    const auto rb = sb.run();
    // Different trace instances, same statistics: close but not equal.
    EXPECT_NE(ra.threads[0].core.committedInsts,
              rb.threads[0].core.committedInsts);
    EXPECT_NEAR(ra.threads[0].ipc, rb.threads[0].ipc,
                0.5 * ra.threads[0].ipc);
}

TEST(Simulator, DeterministicForSameConfig)
{
    SimConfig cfg = quickConfig();
    Simulator a(cfg, {"mcf", "gzip"});
    Simulator b(cfg, {"mcf", "gzip"});
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_EQ(ra.threads[0].core.committedInsts,
              rb.threads[0].core.committedInsts);
    EXPECT_EQ(ra.threads[1].core.committedInsts,
              rb.threads[1].core.committedInsts);
}

/** Single-thread ICOUNT IPC of @p program, as Eq. 2's baseline. */
double
baselineIpc(const std::string &program)
{
    CampaignSpec spec;
    spec.base = quickConfig();
    spec.techniques = {techniqueOf(PolicyKind::Icount)};
    spec.workloads = {Workload::fromPrograms({program})};
    return baselineIpcs(runCampaign(baselineSpec(spec))).at(program);
}

TEST(Simulator, RunLengthStopsShortOfTheClockLimit)
{
    // prewarm + warmup + measure used to wrap the 64-bit clock: a
    // 2^64-1 measured window simulated zero cycles and exited 0.
    SimConfig cfg;
    cfg.prewarmInsts = 2;
    cfg.warmupCycles = 3;
    cfg.measureCycles = kMaxRunCycles - 5;
    checkRunLength(cfg); // exactly at the limit
    ++cfg.measureCycles;
    EXPECT_EXIT(checkRunLength(cfg), ::testing::ExitedWithCode(1),
                "measureCycles: .* past the limit of 4611686018427387904");

    cfg = quickConfig();
    cfg.warmupCycles = kNoCycle;
    EXPECT_EXIT(Simulator(cfg, {"art", "mcf"}), ::testing::ExitedWithCode(1),
                "warmupCycles: 18446744073709551615");
    cfg = quickConfig();
    cfg.prewarmInsts = kMaxRunCycles + 1;
    EXPECT_EXIT(checkRunLength(cfg), ::testing::ExitedWithCode(1),
                "prewarmInsts: ");
}

TEST(GroupGrid, IlpBaselineBeatsMemBaseline)
{
    const double gzip = baselineIpc("gzip");
    EXPECT_GT(gzip, 0.3);
    EXPECT_GT(gzip, 3.0 * baselineIpc("mcf"));
}

TEST(GroupGrid, RunHonorsTechnique)
{
    const std::vector<std::string> programs{"art", "mcf"};
    const SimResult icount =
        Simulator(configFor(quickConfig(), techniqueOf(PolicyKind::Icount), 2),
                  programs)
            .run();
    const SimResult rat =
        Simulator(configFor(quickConfig(), techniqueOf(PolicyKind::Rat), 2),
                  programs)
            .run();
    EXPECT_GT(rat.totalIpc(), 0.0);
    EXPECT_GT(icount.totalIpc(), 0.0);
    // RaT must beat plain ICOUNT on a MEM workload (the headline).
    EXPECT_GT(rat.totalIpc(), icount.totalIpc());
}

TEST(GroupGrid, ParallelGroupRunMatchesShape)
{
    CampaignSpec spec;
    spec.base = quickConfig();
    spec.techniques = {techniqueOf(PolicyKind::Icount)};
    spec.groups = {WorkloadGroup::ILP2};
    spec.parallelism = 4;
    const CampaignOutcome baselines = runCampaign(baselineSpec(spec));
    const GroupMetrics gm =
        groupMetrics(spec, runCampaign(spec), &baselines).at(0).at(0);
    EXPECT_EQ(gm.results.size(), 10u);
    EXPECT_GT(gm.meanThroughput, 0.0);
    EXPECT_GT(gm.meanFairness, 0.0);
    EXPECT_GT(gm.meanEd2, 0.0);
}

TEST(RunParallel, ExecutesEveryJobOnce)
{
    std::vector<int> hits(37, 0);
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 37; ++i)
        jobs.emplace_back([&hits, i] { ++hits[i]; });
    runParallel(jobs, 8);
    for (int i = 0; i < 37; ++i)
        EXPECT_EQ(hits[i], 1) << i;
}

} // namespace
} // namespace rat::sim
