/**
 * @file
 * Tests of the group-grid calls the benches and `ratsim --group` run
 * on (as opposed to the paper-shape integration tests): technique
 * application (configFor), the single-thread baseline campaign
 * (baselineSpec, baselineIpcs), the group fold (groupMetrics), and
 * the runParallel helper.
 */

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "report/serialize.hh"
#include "sim/campaign.hh"

namespace rat::sim {
namespace {

using core::PolicyKind;

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.prewarmInsts = 20000;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 2000;
    return cfg;
}

TEST(GroupGrid, ConfigForAppliesTechniqueAndThreadCount)
{
    const TechniqueSpec rat = techniqueOf(PolicyKind::Rat);
    const SimConfig cfg = configFor(quickConfig(), rat, 4);
    EXPECT_EQ(cfg.core.policy, core::PolicyKind::Rat);
    EXPECT_EQ(cfg.core.numThreads, 4u);
    // Base windows survive the technique override.
    EXPECT_EQ(cfg.warmupCycles, 500u);
    EXPECT_EQ(cfg.measureCycles, 2000u);

    const SimConfig icfg =
        configFor(quickConfig(), techniqueOf(PolicyKind::Icount), 2);
    EXPECT_EQ(icfg.core.policy, core::PolicyKind::Icount);
    EXPECT_EQ(icfg.core.numThreads, 2u);

    // The technique's RaT config replaces the base's whole.
    SimConfig base = quickConfig();
    base.core.rat.useRunaheadCache = true;
    TechniqueSpec capped = techniqueOf(PolicyKind::Rat);
    capped.rat.variant = runahead::RaVariant::Capped;
    const SimConfig ccfg = configFor(base, capped, 2);
    EXPECT_EQ(ccfg.core.rat.variant, runahead::RaVariant::Capped);
    EXPECT_FALSE(ccfg.core.rat.useRunaheadCache);
}

TEST(GroupGrid, BaselineIpcIsDeterministic)
{
    CampaignSpec spec;
    spec.base = quickConfig();
    spec.techniques = {techniqueOf(PolicyKind::Rat)};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    const BaselineIpcMap first =
        baselineIpcs(runCampaign(baselineSpec(spec)));
    EXPECT_GT(first.at("art"), 0.0);

    // A second campaign reproduces the values bit for bit, and each is
    // the IPC of a standalone single-thread ICOUNT run.
    EXPECT_EQ(baselineIpcs(runCampaign(baselineSpec(spec))), first);
    EXPECT_EQ(first.at("art"),
              Simulator(configFor(quickConfig(),
                                  techniqueOf(PolicyKind::Icount), 1),
                        {"art"})
                  .run()
                  .threads.at(0)
                  .ipc);
}

TEST(GroupGrid, BaselineSpecCoversEveryProgramOnce)
{
    CampaignSpec spec;
    spec.base = quickConfig();
    spec.base.traceOut = "never-written.json";
    spec.techniques = {techniqueOf(PolicyKind::Rat),
                       techniqueOf(PolicyKind::Dcra)};
    spec.groups = {WorkloadGroup::MIX2, WorkloadGroup::MEM2};
    // gap is in no 2-thread group; gzip is in MIX2 already.
    spec.workloads = {Workload::fromPrograms({"gap", "gzip"})};

    std::set<std::string> programs{"gap"};
    for (const WorkloadGroup g : spec.groups) {
        for (const Workload &w : workloadsOf(g))
            programs.insert(w.programs.begin(), w.programs.end());
    }

    const CampaignSpec st = baselineSpec(spec);
    ASSERT_EQ(st.techniques.size(), 1u);
    EXPECT_EQ(st.techniques[0].policy, core::PolicyKind::Icount);
    EXPECT_TRUE(st.groups.empty());
    const std::string reference =
        report::toJson(
            configFor(spec.base, techniqueOf(PolicyKind::Icount), 1))
            .dump();
    std::set<std::string> seen;
    for (const CampaignCell &cell : expandCampaign(st)) {
        ASSERT_EQ(cell.programs.size(), 1u);
        EXPECT_TRUE(seen.insert(cell.programs[0]).second)
            << cell.programs[0] << " has two baseline cells";
        EXPECT_EQ(report::toJson(cell.config).dump(), reference);
        EXPECT_TRUE(cell.config.traceOut.empty());
    }
    EXPECT_EQ(seen, programs);
}

TEST(GroupGrid, GroupMeansAreMeansOfCellMetrics)
{
    CampaignSpec spec;
    spec.base = quickConfig();
    spec.techniques = {techniqueOf(PolicyKind::Icount),
                       techniqueOf(PolicyKind::Rat)};
    spec.groups = {WorkloadGroup::ILP2, WorkloadGroup::MEM2};
    spec.parallelism = 2;
    const CampaignOutcome baselines = runCampaign(baselineSpec(spec));
    const CampaignOutcome outcome = runCampaign(spec);
    const auto metrics = groupMetrics(spec, outcome, &baselines);

    // Grid order: [technique][group], each group's workloads in order.
    ASSERT_EQ(metrics.size(), 2u);
    ASSERT_EQ(metrics[0].size(), 2u);
    EXPECT_EQ(metrics[0][1].technique, "ICOUNT");
    EXPECT_EQ(metrics[0][1].group, WorkloadGroup::MEM2);
    EXPECT_EQ(metrics[1][0].technique, "RaT");
    EXPECT_EQ(metrics[1][0].group, WorkloadGroup::ILP2);

    const BaselineIpcMap ipcs = baselineIpcs(baselines);
    std::size_t next = 0;
    for (const GroupMetrics &gm : {metrics[0][0], metrics[0][1],
                                   metrics[1][0], metrics[1][1]}) {
        ASSERT_EQ(gm.results.size(), workloadsOf(gm.group).size());
        std::vector<double> thr, fair, e;
        for (const SimResult &r : gm.results) {
            const CampaignCell &cell = outcome.cells.at(next++);
            EXPECT_EQ(cell.technique, gm.technique);
            EXPECT_EQ(cell.group, groupName(gm.group));
            EXPECT_EQ(report::toJson(r).dump(),
                      report::toJson(cell.result).dump());
            thr.push_back(throughput(cell.result));
            fair.push_back(fairness(cell.result, ipcs));
            e.push_back(ed2(cell.result));
        }
        EXPECT_GT(gm.meanThroughput, 0.0);
        EXPECT_EQ(gm.meanThroughput, mean(thr));
        EXPECT_EQ(gm.meanFairness, mean(fair));
        EXPECT_EQ(gm.meanEd2, mean(e));
    }
    EXPECT_EQ(next, outcome.cells.size());

    // Without baselines the fairness means stay 0.
    for (const auto &row : groupMetrics(spec, outcome)) {
        for (const GroupMetrics &gm : row)
            EXPECT_EQ(gm.meanFairness, 0.0);
    }
}

TEST(GroupGrid, RefusesCellsThatAreNotOneRunPerGroupWorkload)
{
    CampaignSpec spec;
    spec.base = quickConfig();
    spec.techniques = {techniqueOf(PolicyKind::Rat)};
    spec.groups = {WorkloadGroup::MIX2};
    spec.seedAxis = {1, 2};
    EXPECT_DEATH(groupMetrics(spec, CampaignOutcome{}), "single-valued");
    spec.seedAxis.clear();
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    EXPECT_DEATH(groupMetrics(spec, CampaignOutcome{}), "whole groups");
}

TEST(RunParallel, RunsEveryJobExactlyOnce)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.push_back([&count] { ++count; });
    runParallel(jobs, 4);
    EXPECT_EQ(count.load(), 64);
}

TEST(RunParallel, ActuallyUsesMultipleWorkers)
{
    std::mutex mu;
    std::set<std::thread::id> seen;
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 32; ++i) {
        jobs.push_back([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            std::lock_guard<std::mutex> lock(mu);
            seen.insert(std::this_thread::get_id());
        });
    }
    runParallel(jobs, 4);
    EXPECT_GE(seen.size(), 2u);
}

TEST(RunParallel, SingleWorkerAndEmptyJobListAreSafe)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs{[&count] { ++count; }};
    runParallel(jobs, 1);
    EXPECT_EQ(count.load(), 1);
    jobs.clear();
    runParallel(jobs, 4); // must not hang or crash
}

TEST(RunParallel, ThrowingJobRethrowsInsteadOfTerminating)
{
    // Before the fix, the exception escaped the std::thread body and
    // called std::terminate — the whole test process would abort here.
    std::vector<std::function<void()>> jobs;
    jobs.push_back([] { throw std::runtime_error("cell exploded"); });
    for (int i = 0; i < 8; ++i)
        jobs.push_back([] {});
    EXPECT_THROW(runParallel(jobs, 4), std::runtime_error);

    // The exception message survives the hop across threads.
    try {
        std::vector<std::function<void()>> one{
            [] { throw std::runtime_error("cell exploded"); }};
        runParallel(one, 2);
        FAIL() << "runParallel swallowed the job's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell exploded");
    }
}

TEST(RunParallel, FirstOfSeveralExceptionsWinsAndWorkersJoin)
{
    // Every job throws; exactly one exception must surface, all
    // threads must be joined (ASan/TSan would flag a leaked thread),
    // and the pool must stop handing out work after the failure.
    std::atomic<int> started{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i) {
        jobs.push_back([&started] {
            ++started;
            throw std::logic_error("boom");
        });
    }
    EXPECT_THROW(runParallel(jobs, 4), std::logic_error);
    // Failure short-circuits: nowhere near all 64 jobs should start
    // (at most one in-flight job per worker when the flag flipped).
    EXPECT_LE(started.load(), 8);

    // The process is still perfectly usable afterwards.
    std::atomic<int> count{0};
    std::vector<std::function<void()>> ok{[&count] { ++count; }};
    runParallel(ok, 2);
    EXPECT_EQ(count.load(), 1);
}

} // namespace
} // namespace rat::sim
