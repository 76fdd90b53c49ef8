/** @file Integration tests asserting the paper's qualitative results. */

#include <gtest/gtest.h>

#include "sim/campaign.hh"

namespace rat::sim {
namespace {

using core::PolicyKind;

SimConfig
mediumConfig()
{
    SimConfig cfg;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 30000;
    return cfg;
}

/** @p lineup on @p programs at mediumConfig(), as one campaign. */
CampaignSpec
lineupSpec(const std::vector<std::string> &programs,
           const std::vector<TechniqueSpec> &lineup)
{
    CampaignSpec spec;
    spec.base = mediumConfig();
    spec.techniques = lineup;
    spec.workloads = {Workload::fromPrograms(programs)};
    return spec;
}

/** Eq. 1 throughput of every cell of @p spec, in grid order. */
std::vector<double>
throughputs(const CampaignSpec &spec)
{
    std::vector<double> thr;
    for (const CampaignCell &cell : runCampaign(spec).cells)
        thr.push_back(throughput(cell.result));
    return thr;
}

TEST(PaperShape, RatBeatsStaticPoliciesOnMemWorkload)
{
    const std::vector<double> thr = throughputs(lineupSpec(
        {"art", "mcf"},
        {techniqueOf(PolicyKind::Icount), techniqueOf(PolicyKind::Stall),
         techniqueOf(PolicyKind::Flush), techniqueOf(PolicyKind::Rat)}));
    const double icount = thr.at(0);
    const double stall = thr.at(1);
    const double flush = thr.at(2);
    const double rat = thr.at(3);

    // Fig. 1 ordering on MEM workloads: RaT ahead of FLUSH/STALL/ICOUNT.
    EXPECT_GT(rat, flush);
    EXPECT_GT(rat, stall);
    EXPECT_GT(rat, icount);
}

TEST(PaperShape, RatBeatsDynamicPoliciesOnMemWorkload)
{
    const std::vector<double> thr = throughputs(lineupSpec(
        {"swim", "mcf"},
        {techniqueOf(PolicyKind::Dcra), techniqueOf(PolicyKind::HillClimbing),
         techniqueOf(PolicyKind::Rat)}));
    const double dcra = thr.at(0);
    const double hc = thr.at(1);
    const double rat = thr.at(2);

    // Fig. 2 ordering on MEM workloads.
    EXPECT_GT(rat, dcra);
    EXPECT_GT(rat, hc);
}

TEST(PaperShape, RatFairnessBeatsIcountOnMem)
{
    const CampaignSpec spec =
        lineupSpec({"art", "mcf"}, {techniqueOf(PolicyKind::Icount),
                                    techniqueOf(PolicyKind::Rat)});
    const BaselineIpcMap base =
        baselineIpcs(runCampaign(baselineSpec(spec)));
    const CampaignOutcome outcome = runCampaign(spec);
    const double f_icount = fairness(outcome.cells.at(0).result, base);
    const double f_rat = fairness(outcome.cells.at(1).result, base);
    EXPECT_GT(f_rat, f_icount);
}

TEST(PaperShape, IlpWorkloadsLargelyUnaffectedByRat)
{
    const std::vector<double> thr = throughputs(lineupSpec(
        {"gzip", "bzip2"},
        {techniqueOf(PolicyKind::Icount), techniqueOf(PolicyKind::Rat)}));
    const double icount = thr.at(0);
    const double rat = thr.at(1);
    // Within ~15% on ILP pairs (paper: moderate effect on ILP).
    EXPECT_GT(rat, 0.85 * icount);
}

TEST(PaperShape, RatRegisterPressureDropsInRunahead)
{
    const SimResult r =
        Simulator(configFor(mediumConfig(), techniqueOf(PolicyKind::Rat), 2),
                  {"art", "swim"})
            .run();
    for (const ThreadResult &t : r.threads) {
        if (t.core.runaheadCycles > 3000) {
            EXPECT_LT(t.core.avgRegsRunahead(),
                      t.core.avgRegsNormal())
                << t.program;
        }
    }
}

TEST(PaperShape, SmallRegisterFileHurtsFlushMoreThanRat)
{
    CampaignSpec spec =
        lineupSpec({"art", "mcf"}, {techniqueOf(PolicyKind::Flush),
                                    techniqueOf(PolicyKind::Rat)});
    spec.regsAxis = {64, 320};
    const std::vector<double> thr = throughputs(spec);
    const double flush_small = thr.at(0);
    const double flush_big = thr.at(1);
    const double rat_small = thr.at(2);
    const double rat_big = thr.at(3);

    const double flush_slowdown = 1.0 - flush_small / flush_big;
    const double rat_slowdown = 1.0 - rat_small / rat_big;
    // Fig. 6: RaT is less sensitive to register-file size.
    EXPECT_LT(rat_slowdown, flush_slowdown + 0.05);
    // RaT with 64 regs should stay competitive with FLUSH at 320 on MEM.
    EXPECT_GT(rat_small, 0.8 * flush_big);
}

TEST(PaperShape, PrefetchAblationLosesMostOfTheGain)
{
    TechniqueSpec no_pf = techniqueOf(PolicyKind::Rat);
    no_pf.label = "RaT-noPF";
    no_pf.rat.disablePrefetch = true;

    const std::vector<double> thr = throughputs(
        lineupSpec({"swim", "art"}, {techniqueOf(PolicyKind::Rat), no_pf}));
    const double rat = thr.at(0);
    const double nopf = thr.at(1);
    EXPECT_GT(rat, nopf); // Fig. 4: prefetching dominates the benefit
}

} // namespace
} // namespace rat::sim
