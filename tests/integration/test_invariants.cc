/** @file Cross-policy invariant checks over full simulations. */

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "policy/factory.hh"
#include "sim/campaign.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

using core::PolicyKind;

/**
 * Every (technique x workload class) combination must run to completion
 * with consistent accounting. This is the broad safety net for the
 * pipeline's squash/fold/retire machinery.
 */
class PolicyWorkloadMatrix
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
  protected:
    static Workload
    workloadByName(const std::string &name)
    {
        if (name == "ilp2")
            return {"gzip,bzip2", {"gzip", "bzip2"}};
        if (name == "mix2")
            return {"art,gzip", {"art", "gzip"}};
        if (name == "mem2")
            return {"art,mcf", {"art", "mcf"}};
        return {"mem4", {"art", "mcf", "swim", "twolf"}};
    }
};

TEST_P(PolicyWorkloadMatrix, RunsCleanWithSaneNumbers)
{
    const auto &[tech_name, wl_name] = GetParam();
    SimConfig cfg;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 8000;

    const Workload w = workloadByName(wl_name);
    const TechniqueSpec tech =
        techniqueOf(*policy::parsePolicyKind(tech_name));
    const SimResult r =
        Simulator(configFor(cfg, tech,
                            static_cast<unsigned>(w.programs.size())),
                  w.programs)
            .run();

    ASSERT_EQ(r.threads.size(), w.programs.size());
    for (const ThreadResult &t : r.threads) {
        EXPECT_GE(t.ipc, 0.0) << t.program;
        EXPECT_LE(t.ipc, 8.0) << t.program;
        // Stats are windowed: instructions fetched before the window can
        // commit inside it, so allow in-flight slack (ROB + front end).
        EXPECT_LE(t.core.committedInsts, t.core.fetchedInsts + 600)
            << t.program;
        // Mode cycle accounting covers the whole window.
        EXPECT_EQ(t.core.normalCycles + t.core.runaheadCycles, r.cycles)
            << t.program;
    }
    EXPECT_GT(r.committedTotal(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PolicyWorkloadMatrix,
    ::testing::Combine(::testing::Values("ICOUNT", "STALL", "FLUSH",
                                         "DCRA", "HillClimbing", "RaT"),
                       ::testing::Values("ilp2", "mix2", "mem2", "mem4")),
    [](const auto &param_info) {
        return std::get<0>(param_info.param) + "_" +
               std::get<1>(param_info.param);
    });

TEST(Invariants, RunaheadOnlyUnderRat)
{
    SimConfig cfg;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 8000;
    CampaignSpec spec;
    spec.base = cfg;
    for (const PolicyKind kind :
         {PolicyKind::Icount, PolicyKind::Stall, PolicyKind::Flush,
          PolicyKind::Dcra, PolicyKind::HillClimbing, PolicyKind::Rat})
        spec.techniques.push_back(techniqueOf(kind));
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    const CampaignOutcome outcome = runCampaign(spec);
    ASSERT_EQ(outcome.cells.size(), spec.techniques.size());

    for (const CampaignCell &cell : outcome.cells) {
        if (cell.technique == "RaT")
            continue;
        for (const ThreadResult &t : cell.result.threads) {
            EXPECT_EQ(t.core.runaheadEntries, 0u)
                << cell.technique << " " << t.program;
        }
    }
    std::uint64_t entries = 0;
    for (const ThreadResult &t : outcome.cells.back().result.threads)
        entries += t.core.runaheadEntries;
    EXPECT_GT(entries, 0u);
}

TEST(Invariants, OnlyFlushAndRatReexecute)
{
    SimConfig cfg;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 8000;
    const std::vector<std::string> programs{"art", "gzip"};

    // STALL never squashes; executed ~ committed (+ in-flight slack).
    const SimResult stall =
        Simulator(configFor(cfg, techniqueOf(PolicyKind::Stall), 2), programs)
            .run();
    for (const ThreadResult &t : stall.threads)
        EXPECT_EQ(t.core.squashedInsts, 0u) << t.program;

    // FLUSH squashes the memory thread.
    const SimResult flush =
        Simulator(configFor(cfg, techniqueOf(PolicyKind::Flush), 2), programs)
            .run();
    EXPECT_GT(flush.threads[0].core.squashedInsts, 0u);
}

} // namespace
} // namespace rat::sim
