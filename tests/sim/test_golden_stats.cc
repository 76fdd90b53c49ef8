/**
 * @file
 * Golden-stats regression pins: the seeded art,mcf pair under RaT and
 * ICOUNT at the default seed (1) must reproduce these exact counters.
 *
 * Purpose: perf refactors must not silently change simulation
 * semantics. Every pinned number is derived from deterministic integer
 * simulation state, so any drift means behavior changed, not noise. If
 * a change is *intentional* (e.g. a modelling fix), re-capture the
 * values with the harness below and update the constants in the same
 * commit, explaining the semantic change.
 *
 * Re-capture: run the art,mcf workload at measureCycles=20000 as
 * Simulator(configFor(cfg, techniqueOf(kind), 2), programs).run() with
 * kind RaT or ICOUNT, and print the counters (the CLI equivalent:
 * `ratsim --workload art,mcf --policy RaT --measure 20000`).
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/metrics.hh"

namespace rat::sim {
namespace {

using core::PolicyKind;

SimResult
runArtMcf(const TechniqueSpec &tech)
{
    SimConfig cfg; // defaults: seed 1, 20k warmup, 1M prewarm insts
    cfg.measureCycles = 20000;
    Workload w;
    w.name = "art,mcf";
    w.programs = {"art", "mcf"};
    return Simulator(configFor(cfg, tech, 2), w.programs).run();
}

TEST(GoldenStats, RatOnArtMcfSeed1)
{
    const SimResult r = runArtMcf(techniqueOf(PolicyKind::Rat));
    ASSERT_EQ(r.threads.size(), 2u);
    EXPECT_EQ(r.cycles, 20000u);

    const ThreadResult &art = r.threads[0];
    EXPECT_EQ(art.program, "art");
    EXPECT_EQ(art.core.committedInsts, 14046u);
    EXPECT_EQ(art.core.runaheadEntries, 39u);
    EXPECT_EQ(art.core.runaheadCycles, 15216u);

    const ThreadResult &mcf = r.threads[1];
    EXPECT_EQ(mcf.program, "mcf");
    EXPECT_EQ(mcf.core.committedInsts, 1089u);
    EXPECT_EQ(mcf.core.runaheadEntries, 49u);
    EXPECT_EQ(mcf.core.runaheadCycles, 17936u);

    // IPC and throughput are exact functions of the counters above.
    EXPECT_DOUBLE_EQ(art.ipc, 14046.0 / 20000.0);
    EXPECT_DOUBLE_EQ(mcf.ipc, 1089.0 / 20000.0);
    EXPECT_DOUBLE_EQ(r.throughputEq1(), (14046.0 + 1089.0) / 2 / 20000.0);
    EXPECT_DOUBLE_EQ(r.totalIpc(), (14046.0 + 1089.0) / 20000.0);
}

TEST(GoldenStats, IcountOnArtMcfSeed1)
{
    const SimResult r = runArtMcf(techniqueOf(PolicyKind::Icount));
    ASSERT_EQ(r.threads.size(), 2u);
    EXPECT_EQ(r.cycles, 20000u);

    const ThreadResult &art = r.threads[0];
    EXPECT_EQ(art.program, "art");
    EXPECT_EQ(art.core.committedInsts, 3829u);
    EXPECT_EQ(art.core.runaheadEntries, 0u);
    EXPECT_EQ(art.core.runaheadCycles, 0u);

    const ThreadResult &mcf = r.threads[1];
    EXPECT_EQ(mcf.program, "mcf");
    EXPECT_EQ(mcf.core.committedInsts, 1165u);
    EXPECT_EQ(mcf.core.runaheadEntries, 0u);
    EXPECT_EQ(mcf.core.runaheadCycles, 0u);

    EXPECT_DOUBLE_EQ(r.throughputEq1(), (3829.0 + 1165.0) / 2 / 20000.0);
}

SimResult
runMem4(const TechniqueSpec &tech)
{
    SimConfig cfg; // defaults: seed 1, 20k warmup, 1M prewarm insts
    cfg.measureCycles = 20000;
    // First MEM4 workload of Table 2: four memory-bound threads.
    Workload w;
    w.name = "art,mcf,swim,twolf";
    w.programs = {"art", "mcf", "swim", "twolf"};
    return Simulator(configFor(cfg, tech, 4), w.programs).run();
}

TEST(GoldenStats, RatOnMem4QuadSeed1)
{
    // 4-thread pin: guards the multi-thread semantics (shared ROB/IQ
    // arbitration across four contexts) the 2-thread pins cannot see.
    const SimResult r = runMem4(techniqueOf(PolicyKind::Rat));
    ASSERT_EQ(r.threads.size(), 4u);
    EXPECT_EQ(r.cycles, 20000u);

    const ThreadResult &art = r.threads[0];
    EXPECT_EQ(art.program, "art");
    EXPECT_EQ(art.core.committedInsts, 10176u);
    EXPECT_EQ(art.core.runaheadEntries, 37u);
    EXPECT_EQ(art.core.runaheadCycles, 13102u);

    const ThreadResult &mcf = r.threads[1];
    EXPECT_EQ(mcf.program, "mcf");
    EXPECT_EQ(mcf.core.committedInsts, 1039u);
    EXPECT_EQ(mcf.core.runaheadEntries, 47u);
    EXPECT_EQ(mcf.core.runaheadCycles, 17206u);

    const ThreadResult &swim = r.threads[2];
    EXPECT_EQ(swim.program, "swim");
    EXPECT_EQ(swim.core.committedInsts, 14818u);
    EXPECT_EQ(swim.core.runaheadEntries, 32u);
    EXPECT_EQ(swim.core.runaheadCycles, 11714u);

    const ThreadResult &twolf = r.threads[3];
    EXPECT_EQ(twolf.program, "twolf");
    EXPECT_EQ(twolf.core.committedInsts, 3019u);
    EXPECT_EQ(twolf.core.runaheadEntries, 47u);
    EXPECT_EQ(twolf.core.runaheadCycles, 15621u);

    EXPECT_DOUBLE_EQ(
        r.throughputEq1(),
        (10176.0 + 1039.0 + 14818.0 + 3019.0) / 4 / 20000.0);
}

TEST(GoldenStats, IcountOnMem4QuadSeed1)
{
    const SimResult r = runMem4(techniqueOf(PolicyKind::Icount));
    ASSERT_EQ(r.threads.size(), 4u);
    EXPECT_EQ(r.cycles, 20000u);
    EXPECT_EQ(r.threads[0].core.committedInsts, 2002u);
    EXPECT_EQ(r.threads[1].core.committedInsts, 1195u);
    EXPECT_EQ(r.threads[2].core.committedInsts, 2296u);
    EXPECT_EQ(r.threads[3].core.committedInsts, 1771u);
    for (const ThreadResult &t : r.threads) {
        EXPECT_EQ(t.core.runaheadEntries, 0u);
        EXPECT_EQ(t.core.runaheadCycles, 0u);
    }
}

TEST(GoldenStats, RatBeatsIcountOnMemoryBoundPair)
{
    // The paper's headline claim on this pair, as a coarse invariant on
    // top of the exact pins: runahead must raise throughput.
    const SimResult rat = runArtMcf(techniqueOf(PolicyKind::Rat));
    const SimResult icount = runArtMcf(techniqueOf(PolicyKind::Icount));
    EXPECT_GT(rat.throughputEq1(), 1.5 * icount.throughputEq1());
}

} // namespace
} // namespace rat::sim
