/**
 * @file
 * Farm coordinator tests: multi-process execution must be
 * byte-identical to the in-process campaign runner and walk the
 * prewarm once per campaign job like it, resume from the shared cache
 * after a worker is killed, requeue a dead worker's in-flight work
 * onto survivors, and skip process spawning entirely on a fully warm
 * cache.
 *
 * Workers are real fork/execs of the built ratsim binary
 * (RATSIM_CLI_PATH), so these tests cover the wire protocol and the
 * `--farm-worker` entry point end to end.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "report/serialize.hh"
#include "sim/campaign.hh"
#include "sim/farm.hh"

#ifndef RATSIM_CLI_PATH
#error "RATSIM_CLI_PATH must point at the ratsim binary"
#endif

namespace rat::sim {
namespace {

using core::PolicyKind;

struct TempCacheDir {
    std::filesystem::path path;

    explicit TempCacheDir(const char *name)
        : path(std::filesystem::path(testing::TempDir()) / name)
    {
        std::filesystem::remove_all(path);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path); }
};

/** Scoped env var for the deterministic worker-kill hook. */
struct KillAfter {
    explicit KillAfter(const char *cells)
    {
        setenv("RATSIM_FARM_TEST_KILL_AFTER", cells, 1);
    }
    ~KillAfter() { unsetenv("RATSIM_FARM_TEST_KILL_AFTER"); }
};

CampaignSpec
smallSpec(const std::string &cache_dir)
{
    CampaignSpec spec;
    spec.base.prewarmInsts = 5000;
    spec.base.warmupCycles = 200;
    spec.base.measureCycles = 1000;
    spec.techniques = {techniqueOf(PolicyKind::Icount),
                       techniqueOf(PolicyKind::Rat)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.seedAxis = {1, 2, 3};
    spec.cacheDir = cache_dir;
    return spec;
}

FarmOptions
farmOptions(unsigned workers)
{
    FarmOptions opt;
    opt.workers = workers;
    opt.workerBinary = RATSIM_CLI_PATH;
    return opt;
}

std::string
reportJson(const CampaignOutcome &outcome, const CampaignSpec &spec)
{
    return campaignJson(outcome, spec).dump();
}

TEST(Farm, MatchesInProcessSweepByteForByte)
{
    TempCacheDir cache("farm_identity");
    const CampaignSpec spec = smallSpec(cache.path.string());

    const FarmOutcome farm = runFarm(spec, farmOptions(3));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.campaign.simulated, 6u);
    EXPECT_EQ(farm.campaign.failedStores, 0u);
    EXPECT_EQ(farm.workerDeaths, 0u);
    EXPECT_LE(farm.workersSpawned, 3u);

    CampaignSpec uncached = spec;
    uncached.cacheDir.clear();
    const CampaignOutcome sweep = runCampaign(uncached);
    EXPECT_EQ(reportJson(farm.campaign, spec),
              reportJson(sweep, uncached));
    EXPECT_EQ(campaignCsv(farm.campaign).dump(),
              campaignCsv(sweep).dump());
}

TEST(Farm, FullyWarmCacheSpawnsNoWorkers)
{
    TempCacheDir cache("farm_warm");
    const CampaignSpec spec = smallSpec(cache.path.string());
    const FarmOutcome cold = runFarm(spec, farmOptions(2));
    ASSERT_TRUE(cold.completed) << cold.error;

    const FarmOutcome warm = runFarm(spec, farmOptions(2));
    ASSERT_TRUE(warm.completed) << warm.error;
    EXPECT_EQ(warm.workersSpawned, 0u);
    EXPECT_EQ(warm.campaign.simulated, 0u);
    EXPECT_EQ(warm.campaign.cacheHits, 6u);
    EXPECT_EQ(reportJson(warm.campaign, spec),
              reportJson(cold.campaign, spec));
}

TEST(Farm, KilledSoleWorkerAbortsWithPartialCacheThenResumes)
{
    TempCacheDir cache("farm_resume");
    const CampaignSpec spec = smallSpec(cache.path.string());

    // kill -9 the only worker after two cells: the run must fail, but
    // those two cells must already be durable in the shared cache.
    // The worker dies holding its third job, so the coordinator must
    // also requeue that in-flight cell (with no survivor to take it).
    // Respawning is disabled so the abort-and-resume path stays
    // reachable — with it on, the farm would just heal and finish.
    {
        KillAfter kill("2");
        FarmOptions no_respawn = farmOptions(1);
        no_respawn.respawn = false;
        const FarmOutcome crashed = runFarm(spec, no_respawn);
        EXPECT_FALSE(crashed.completed);
        EXPECT_FALSE(crashed.error.empty());
        EXPECT_EQ(crashed.workerDeaths, 1u);
        EXPECT_EQ(crashed.jobsRequeued, 1u);
        EXPECT_EQ(crashed.campaign.simulated, 2u);
    }

    // The resume simulates only the four missing cells...
    const FarmOutcome resumed = runFarm(spec, farmOptions(2));
    ASSERT_TRUE(resumed.completed) << resumed.error;
    EXPECT_EQ(resumed.campaign.cacheHits, 2u);
    EXPECT_EQ(resumed.campaign.simulated, 4u);

    // ...and the merged report is still byte-identical to a clean
    // single-process run of the same spec.
    CampaignSpec uncached = spec;
    uncached.cacheDir.clear();
    const CampaignOutcome sweep = runCampaign(uncached);
    EXPECT_EQ(reportJson(resumed.campaign, spec),
              reportJson(sweep, uncached));
}

TEST(Farm, SurvivorsDrainAKilledWorkersShards)
{
    TempCacheDir cache("farm_requeue");
    // A wider grid than the other tests: worker 0 dies on receipt of
    // its second cell, and enough work must remain that it is always
    // fed one (12 cells across 2 workers).
    CampaignSpec spec = smallSpec(cache.path.string());
    spec.seedAxis = {1, 2, 3, 4, 5, 6};

    // Worker 0 dies holding an in-flight cell; the requeued cell and
    // the rest of its job must still be simulated, and the campaign
    // still completes in one run.
    KillAfter kill("1");
    const FarmOutcome farm = runFarm(spec, farmOptions(2));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.workerDeaths, 1u);
    EXPECT_GE(farm.jobsRequeued, 1u);
    EXPECT_EQ(farm.campaign.simulated, 12u);

    CampaignSpec uncached = spec;
    uncached.cacheDir.clear();
    const CampaignOutcome sweep = runCampaign(uncached);
    EXPECT_EQ(reportJson(farm.campaign, spec),
              reportJson(sweep, uncached));
}

TEST(Farm, RespawnRefillsAKilledSlotAndCompletes)
{
    TempCacheDir cache("farm_respawn");
    const CampaignSpec spec = smallSpec(cache.path.string());

    // The sole worker dies holding its third job. With respawning on
    // (the default) the slot is refilled after backoff — the respawned
    // process does not inherit the kill hook, which models a single
    // operator kill -9 — and the campaign completes in one run.
    KillAfter kill("2");
    const FarmOutcome farm = runFarm(spec, farmOptions(1));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.workerDeaths, 1u);
    EXPECT_EQ(farm.workersRespawned, 1u);
    EXPECT_EQ(farm.jobsRequeued, 1u);
    EXPECT_EQ(farm.campaign.simulated, 6u);
    EXPECT_TRUE(farm.quarantinedCells.empty());

    CampaignSpec uncached = spec;
    uncached.cacheDir.clear();
    const CampaignOutcome sweep = runCampaign(uncached);
    EXPECT_EQ(reportJson(farm.campaign, spec),
              reportJson(sweep, uncached));
}

TEST(Farm, WorksWithoutACacheDirectory)
{
    // No cache: results only travel the wire. Still byte-identical.
    const CampaignSpec spec = smallSpec("");
    const FarmOutcome farm = runFarm(spec, farmOptions(2));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.campaign.simulated, 6u);
    EXPECT_EQ(farm.campaign.failedStores, 0u);

    const CampaignOutcome sweep = runCampaign(spec);
    EXPECT_EQ(reportJson(farm.campaign, spec), reportJson(sweep, spec));
}

TEST(Farm, DuplicateCellsSimulateOnceAcrossProcesses)
{
    CampaignSpec spec = smallSpec("");
    spec.workloads = {Workload::fromPrograms({"art", "mcf"}),
                      Workload::fromPrograms({"art", "mcf"})};
    spec.techniques = {techniqueOf(PolicyKind::Icount)};
    spec.seedAxis = {1};
    const FarmOutcome farm = runFarm(spec, farmOptions(2));
    ASSERT_TRUE(farm.completed) << farm.error;
    ASSERT_EQ(farm.campaign.cells.size(), 2u);
    EXPECT_EQ(farm.campaign.simulated, 1u); // deduped before the jobs
    EXPECT_EQ(report::toJson(farm.campaign.cells[0].result).dump(),
              report::toJson(farm.campaign.cells[1].result).dump());
}

TEST(Farm, WorkersReuseOnePrewarmWalkPerIdentity)
{
    // Three policies per prewarm identity, one job per identity: a
    // worker walks the first cell of an identity and restores the
    // next ones it is handed.
    TempCacheDir cache("farm_prewarm");
    CampaignSpec spec = smallSpec(cache.path.string());
    spec.techniques = {techniqueOf(PolicyKind::Icount),
                       techniqueOf(PolicyKind::Flush),
                       techniqueOf(PolicyKind::Rat)};
    const FarmOutcome farm = runFarm(spec, farmOptions(2));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.campaign.simulated, 9u);
    EXPECT_EQ(farm.campaign.prewarmWalks + farm.campaign.prewarmRestores,
              9u);
    EXPECT_LT(farm.campaign.prewarmWalks, farm.campaign.simulated);

    CampaignSpec uncached = spec;
    uncached.cacheDir.clear();
    const CampaignOutcome sweep = runCampaign(uncached);
    EXPECT_EQ(reportJson(farm.campaign, spec),
              reportJson(sweep, uncached));
    EXPECT_EQ(campaignCsv(farm.campaign).dump(),
              campaignCsv(sweep).dump());
}

TEST(Farm, WalksOncePerCampaignJobLikeTheSweep)
{
    // 3 policies x 2 workloads x 2 seeds: 12 cells of 4 prewarm
    // identities. The farm's 2 workers get the sweep's jobs, so it
    // walks once per job, plus once per job a worker took over.
    CampaignSpec spec = smallSpec("");
    spec.techniques = {techniqueOf(PolicyKind::Icount),
                       techniqueOf(PolicyKind::Flush),
                       techniqueOf(PolicyKind::Rat)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"}),
                      Workload::fromPrograms({"swim", "twolf"})};
    spec.seedAxis = {1, 2};
    spec.parallelism = 2;

    const CampaignOutcome sweep = runCampaign(spec);
    EXPECT_EQ(sweep.prewarmWalks, 4u);

    const FarmOutcome farm = runFarm(spec, farmOptions(2));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.campaign.simulated, 12u);
    EXPECT_LE(farm.campaign.prewarmWalks, 4u + farm.jobsStolen);
    EXPECT_EQ(reportJson(farm.campaign, spec), reportJson(sweep, spec));
}

TEST(Farm, FailedStoresAreCountedNotHidden)
{
    // Cache dir under a regular file: workers simulate fine but every
    // store fails; the farm must finish and report the failures.
    TempCacheDir dir("farm_badcache");
    std::filesystem::create_directories(dir.path);
    std::ofstream(dir.path / "blocker") << "x";

    CampaignSpec spec = smallSpec((dir.path / "blocker" / "c").string());
    spec.techniques = {techniqueOf(PolicyKind::Icount)};
    spec.seedAxis = {1};
    const FarmOutcome farm = runFarm(spec, farmOptions(1));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.campaign.simulated, 1u);
    EXPECT_EQ(farm.campaign.failedStores, 1u);
}

} // namespace
} // namespace rat::sim
