/**
 * @file
 * Campaign engine tests: grid expansion, on-disk result-cache
 * memoization (a warm re-run simulates nothing and returns
 * bit-identical results), parallel-vs-serial equivalence,
 * key-collision safety, and prewarm sharing (cells of one prewarm
 * identity walk once per job and restore the rest, bit-identically).
 */

#include <filesystem>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "policy/factory.hh"
#include "report/result_cache.hh"
#include "report/serialize.hh"
#include "sim/campaign.hh"
#include "sim/checkpoint.hh"

namespace rat::sim {
namespace {

using core::PolicyKind;

/** Tiny windows: the grid runs in well under a second per cell. */
SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.prewarmInsts = 5000;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 1000;
    return cfg;
}

CampaignSpec
smallSpec(const std::string &cache_dir)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {techniqueOf(PolicyKind::Icount),
                       techniqueOf(PolicyKind::Rat)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.seedAxis = {1, 2};
    spec.cacheDir = cache_dir;
    return spec;
}

/** Scoped temp dir under the gtest temp root. */
struct TempCacheDir {
    std::filesystem::path path;

    explicit TempCacheDir(const char *name)
        : path(std::filesystem::path(testing::TempDir()) / name)
    {
        std::filesystem::remove_all(path);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path); }
};

std::string
cellsJson(const CampaignOutcome &outcome, const CampaignSpec &spec)
{
    return campaignJson(outcome, spec).dump();
}

TEST(Campaign, ExpandsFullCrossProductInDeterministicOrder)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {techniqueOf(PolicyKind::Icount),
                       techniqueOf(PolicyKind::Rat)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"}),
                      Workload::fromPrograms({"swim", "mcf"})};
    spec.regsAxis = {128, 320};
    spec.seedAxis = {1, 2, 3};

    const auto cells = expandCampaign(spec);
    ASSERT_EQ(cells.size(), 2u * 2u * 2u * 3u);

    // Outermost loop is the technique, innermost the seed.
    EXPECT_EQ(cells[0].technique, "ICOUNT");
    EXPECT_EQ(cells[0].workload, "art,mcf");
    EXPECT_EQ(cells[0].regs, 128u);
    EXPECT_EQ(cells[0].seed, 1u);
    EXPECT_EQ(cells[1].seed, 2u);
    EXPECT_EQ(cells[3].regs, 320u);
    EXPECT_EQ(cells.back().technique, "RaT");
    EXPECT_EQ(cells.back().workload, "swim,mcf");
    EXPECT_EQ(cells.back().seed, 3u);

    // The effective config reflects every coordinate.
    EXPECT_EQ(cells[0].config.core.intRegs, 128u);
    EXPECT_EQ(cells[0].config.core.fpRegs, 128u);
    EXPECT_EQ(cells[0].config.core.numThreads, 2u);
    EXPECT_EQ(cells[0].config.seed, 1u);
    EXPECT_EQ(cells.back().config.core.policy, core::PolicyKind::Rat);

    // Every cell has a distinct cache key.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (std::size_t j = i + 1; j < cells.size(); ++j)
            EXPECT_NE(cells[i].key, cells[j].key) << i << "," << j;
    }
}

TEST(Campaign, RaVariantAxisExpandsWithDistinctKeys)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {techniqueOf(PolicyKind::Rat)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.raVariantAxis = {runahead::RaVariant::Classic,
                          runahead::RaVariant::Capped,
                          runahead::RaVariant::UselessFilter};

    const auto cells = expandCampaign(spec);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].raVariant, "classic");
    EXPECT_EQ(cells[1].raVariant, "capped");
    EXPECT_EQ(cells[2].raVariant, "useless-filter");
    EXPECT_EQ(cells[1].config.core.rat.variant,
              runahead::RaVariant::Capped);

    // The variant is part of the serialized config, so every variant
    // cell gets its own result-cache key.
    EXPECT_NE(cells[0].key, cells[1].key);
    EXPECT_NE(cells[0].key, cells[2].key);
    EXPECT_NE(cells[1].key, cells[2].key);
}

TEST(Campaign, RaVariantAxisCollapsesForNonRunaheadTechniques)
{
    // The engine is inert for ICOUNT, so the axis must not multiply
    // its cells (they would be bit-identical simulations under
    // distinct cache keys).
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {techniqueOf(PolicyKind::Icount),
                       techniqueOf(PolicyKind::Rat)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.raVariantAxis = {runahead::RaVariant::Classic,
                          runahead::RaVariant::Capped,
                          runahead::RaVariant::UselessFilter};

    const auto cells = expandCampaign(spec);
    ASSERT_EQ(cells.size(), 1u + 3u);
    EXPECT_EQ(cells[0].technique, "ICOUNT");
    EXPECT_EQ(cells[0].raVariant, "classic");
    for (std::size_t i = 1; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].technique, "RaT");
}

TEST(Campaign, RaVariantCellsRoundTripThroughCacheBitIdentical)
{
    TempCacheDir dir("ravariant-cache");
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {techniqueOf(PolicyKind::Rat)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.raVariantAxis = {runahead::RaVariant::Classic,
                          runahead::RaVariant::Capped,
                          runahead::RaVariant::UselessFilter};
    spec.cacheDir = dir.path.string();

    const CampaignOutcome cold = runCampaign(spec);
    EXPECT_EQ(cold.simulated, 3u);
    const CampaignOutcome warm = runCampaign(spec);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cacheHits, 3u);
    EXPECT_EQ(cellsJson(warm, spec), cellsJson(cold, spec));

    // The variant knob must actually reach the simulator: capped runs
    // differ from classic on this memory-bound pair.
    EXPECT_NE(report::toJson(cold.cells[0].result).dump(),
              report::toJson(cold.cells[1].result).dump());
}

TEST(Campaign, EmptyAxesCollapseToBaseValues)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {techniqueOf(PolicyKind::Rat)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    const auto cells = expandCampaign(spec);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].regs, spec.base.core.intRegs);
    EXPECT_EQ(cells[0].rob, spec.base.core.robEntries);
    EXPECT_EQ(cells[0].measureCycles, spec.base.measureCycles);
    EXPECT_EQ(cells[0].seed, spec.base.seed);

    // An unset axis keeps the value of configFor's config: the
    // technique's runahead variant, and the base's register split.
    spec.base.core.fpRegs = spec.base.core.intRegs / 2;
    TechniqueSpec capped = techniqueOf(PolicyKind::Rat);
    capped.rat.variant = runahead::RaVariant::Capped;
    spec.techniques = {capped};
    const auto capped_cells = expandCampaign(spec);
    ASSERT_EQ(capped_cells.size(), 1u);
    EXPECT_EQ(capped_cells[0].raVariant, "capped");
    EXPECT_EQ(capped_cells[0].config.core.fpRegs, spec.base.core.fpRegs);
    EXPECT_EQ(report::toJson(capped_cells[0].config).dump(),
              report::toJson(configFor(spec.base, capped, 2)).dump());
}

TEST(Campaign, WarmCacheRunSimulatesNothingAndIsBitIdentical)
{
    TempCacheDir cache("ratsim_campaign_cache");
    const CampaignSpec spec = smallSpec(cache.path.string());

    const CampaignOutcome cold = runCampaign(spec);
    ASSERT_EQ(cold.cells.size(), 4u);
    EXPECT_EQ(cold.simulated, 4u);
    EXPECT_EQ(cold.cacheHits, 0u);
    for (const CampaignCell &cell : cold.cells) {
        EXPECT_FALSE(cell.fromCache);
        EXPECT_GT(cell.result.cycles, 0u);
    }

    const CampaignOutcome warm = runCampaign(spec);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cacheHits, 4u);
    for (const CampaignCell &cell : warm.cells)
        EXPECT_TRUE(cell.fromCache);

    // The whole structured report is byte-identical.
    EXPECT_EQ(cellsJson(cold, spec), cellsJson(warm, spec));
}

TEST(Campaign, SerialRunMatchesParallelColdRunBitForBit)
{
    TempCacheDir cache("ratsim_campaign_serial");
    CampaignSpec parallel = smallSpec(cache.path.string());
    parallel.parallelism = 4;

    CampaignSpec serial = smallSpec(""); // uncached, one worker
    serial.parallelism = 1;

    const CampaignOutcome a = runCampaign(parallel);
    const CampaignOutcome b = runCampaign(serial);
    EXPECT_EQ(b.simulated, b.cells.size());
    EXPECT_EQ(cellsJson(a, parallel), cellsJson(b, serial));
}

TEST(Campaign, ExtendedSweepOnlySimulatesNewCells)
{
    TempCacheDir cache("ratsim_campaign_extend");
    CampaignSpec spec = smallSpec(cache.path.string());
    const CampaignOutcome cold = runCampaign(spec);
    EXPECT_EQ(cold.simulated, 4u);

    // Extending the seed axis re-uses the four cached cells.
    spec.seedAxis = {1, 2, 3};
    const CampaignOutcome extended = runCampaign(spec);
    ASSERT_EQ(extended.cells.size(), 6u);
    EXPECT_EQ(extended.cacheHits, 4u);
    EXPECT_EQ(extended.simulated, 2u);
}

TEST(Campaign, DuplicateCellsSimulateOnce)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {techniqueOf(PolicyKind::Icount)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"}),
                      Workload::fromPrograms({"art", "mcf"})};
    const CampaignOutcome outcome = runCampaign(spec);
    ASSERT_EQ(outcome.cells.size(), 2u);
    EXPECT_EQ(outcome.simulated, 1u);
    EXPECT_EQ(report::toJson(outcome.cells[0].result).dump(),
              report::toJson(outcome.cells[1].result).dump());
}

/** All nine scheduling policies as campaign techniques. */
std::vector<TechniqueSpec>
allPolicies()
{
    std::vector<TechniqueSpec> techniques;
    for (const std::string &name : policy::policyKindNames())
        techniques.push_back(techniqueOf(*policy::parsePolicyKind(name)));
    return techniques;
}

std::string
standaloneJson(const CampaignCell &cell)
{
    Simulator sim(cell.config, cell.programs);
    return report::toJson(sim.run()).dump();
}

TEST(Campaign, CellsOfOnePrewarmIdentityWalkOnceAndMatchStandaloneRuns)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = allPolicies();
    spec.workloads = {Workload::fromPrograms({"art", "mcf"}),
                      Workload::fromPrograms({"swim", "gzip"})};
    spec.parallelism = 1;

    testing::internal::CaptureStderr();
    const CampaignOutcome outcome = runCampaign(spec);
    const std::string log = testing::internal::GetCapturedStderr();
    ASSERT_EQ(outcome.cells.size(), 18u);
    EXPECT_EQ(outcome.simulated, 18u);
    EXPECT_EQ(outcome.prewarmWalks, 2u);
    EXPECT_EQ(outcome.prewarmRestores, 16u);
    EXPECT_EQ(log.find("checkpoint restore failed"), std::string::npos)
        << log;
    for (const CampaignCell &cell : outcome.cells) {
        SCOPED_TRACE(cell.technique + " on " + cell.workload);
        EXPECT_EQ(report::toJson(cell.result).dump(),
                  standaloneJson(cell));
    }
}

TEST(Campaign, OneIdentitySplitsOverTheWorkersAndWalksOncePerJob)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = allPolicies();
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.parallelism = 4;

    const CampaignPlan plan = planCampaign(spec, report::ResultCache(""));
    const auto jobs = campaignJobs(plan, spec.parallelism);
    EXPECT_GE(jobs.size(), 4u);
    std::size_t cells = 0;
    for (const auto &job : jobs) {
        EXPECT_FALSE(job.empty());
        cells += job.size();
    }
    EXPECT_EQ(cells, 9u);

    const CampaignOutcome outcome = runCampaign(spec);
    EXPECT_LE(outcome.prewarmWalks, 4u);
    EXPECT_EQ(outcome.prewarmWalks + outcome.prewarmRestores, 9u);

    // With more identities than workers, each identity is one job.
    spec.seedAxis = {1, 2, 3, 4, 5};
    const CampaignPlan wide = planCampaign(spec, report::ResultCache(""));
    EXPECT_EQ(campaignJobs(wide, spec.parallelism).size(), 5u);
}

TEST(Campaign, DistinctRegisterFilesAreDistinctIdentitiesNeverCrossRestored)
{
    // The restore-time digest covers the register-file free counts, so
    // a regs axis splits the prewarm identity.
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {techniqueOf(PolicyKind::Icount),
                       techniqueOf(PolicyKind::Flush),
                       techniqueOf(PolicyKind::Rat)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.regsAxis = {128, 320};
    spec.parallelism = 1;

    const CampaignPlan plan = planCampaign(spec, report::ResultCache(""));
    std::set<std::uint64_t> identities;
    for (const CampaignCell &cell : plan.outcome.cells)
        identities.insert(prewarmIdentity(cell.config, cell.programs));
    EXPECT_EQ(identities.size(), 2u);
    // Identity-ordered leads: each identity's cells are adjacent.
    ASSERT_EQ(plan.leads.size(), 6u);
    EXPECT_NE(plan.outcome.cells[plan.leads[0]].regs,
              plan.outcome.cells[plan.leads[3]].regs);
    for (std::size_t i = 0; i < plan.leads.size(); ++i)
        EXPECT_EQ(plan.outcome.cells[plan.leads[i]].regs,
                  plan.outcome.cells[plan.leads[i < 3 ? 0 : 3]].regs);

    testing::internal::CaptureStderr();
    const CampaignOutcome outcome = runCampaign(spec);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(outcome.prewarmWalks, 2u);
    EXPECT_EQ(outcome.prewarmRestores, 4u);
    EXPECT_EQ(log.find("checkpoint restore failed"), std::string::npos)
        << log;
    for (const CampaignCell &cell : outcome.cells)
        EXPECT_EQ(report::toJson(cell.result).dump(),
                  standaloneJson(cell));
}

TEST(ResultCache, CollisionAndCorruptionDegradeToMiss)
{
    TempCacheDir dir("ratsim_result_cache");
    const report::ResultCache cache(dir.path.string());

    SimConfig cfg = tinyConfig();
    const std::vector<std::string> programs = {"art", "mcf"};
    const std::string key = report::ResultCache::keyFor(cfg, programs);

    // Absent cell.
    EXPECT_FALSE(cache.load(key));

    // Store and reload exactly.
    SimResult r;
    r.cycles = 123;
    ThreadResult t;
    t.program = "art";
    t.ipc = 0.5;
    r.threads.push_back(t);
    cache.store(key, r);
    const auto hit = cache.load(key);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->cycles, 123u);
    EXPECT_EQ(hit->threads.at(0).program, "art");

    // A different key hashing to the same file must not be served the
    // stored result: simulate by asking with a modified config.
    cfg.seed = 777;
    const std::string other = report::ResultCache::keyFor(cfg, programs);
    std::filesystem::copy_file(
        dir.path / report::ResultCache::fileNameFor(key),
        dir.path / report::ResultCache::fileNameFor(other));
    EXPECT_FALSE(cache.load(other)); // stored key string mismatches

    // Corrupt cell: unparseable JSON is a miss, not a crash.
    std::ofstream(dir.path / report::ResultCache::fileNameFor(key))
        << "{ not json";
    EXPECT_FALSE(cache.load(key));
}

TEST(ResultCache, DisabledCacheNeverStoresOrLoads)
{
    const report::ResultCache cache("");
    EXPECT_FALSE(cache.enabled());
    SimResult r;
    cache.store("key", r);
    EXPECT_FALSE(cache.load("key"));
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(Workloads, FromProgramsJoinsCanonicalName)
{
    const Workload w = Workload::fromPrograms({"art", "mcf", "swim"});
    EXPECT_EQ(w.name, "art,mcf,swim");
    ASSERT_EQ(w.programs.size(), 3u);
    EXPECT_EQ(w.programs[2], "swim");
    EXPECT_EQ(Workload::fromPrograms({}).name, "");
}

TEST(TechniqueOf, LabelIsThePolicyKindName)
{
    for (std::size_t i = 0;
         i <= static_cast<std::size_t>(PolicyKind::MlpAware); ++i) {
        const auto kind = static_cast<PolicyKind>(i);
        const TechniqueSpec tech = techniqueOf(kind);
        EXPECT_EQ(tech.label, policy::policyKindName(kind));
        EXPECT_EQ(tech.policy, kind);
        SimConfig cfg;
        cfg.core.rat = tech.rat; // the default RaT config
        EXPECT_EQ(report::toJson(cfg).dump(),
                  report::toJson(SimConfig{}).dump());
    }
}

TEST(Workloads, ParseGroupRoundTripsAllGroups)
{
    for (const WorkloadGroup g : allGroups()) {
        const auto parsed = parseGroup(groupName(g));
        ASSERT_TRUE(parsed);
        EXPECT_EQ(*parsed, g);
    }
    EXPECT_FALSE(parseGroup("MEM8"));
    EXPECT_FALSE(parseGroup(""));
}

} // namespace
} // namespace rat::sim
