/**
 * @file
 * Ablation for the Section 3.3 floating-point optimisation: dropping FP
 * compute instructions during runahead frees FP queues/registers/units
 * without hurting the prefetch benefit (addresses are integer work).
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace rat;
    using namespace rat::bench;

    banner("Ablation — FP-drop in runahead on/off (Section 3.3)",
           "throughput with FP-drop should match (or exceed) execution "
           "of FP work in runahead, since effective addresses only need "
           "the integer pipeline");

    sim::TechniqueSpec no_drop = sim::techniqueOf(core::PolicyKind::Rat);
    no_drop.label = "RaT-execFP";
    no_drop.rat.dropFpInRunahead = false;
    const auto grid = runGrid(
        benchSpec({sim::techniqueOf(core::PolicyKind::Rat), no_drop}));

    std::printf("\n%-8s %14s %14s %10s\n", "group", "RaT(drop FP)",
                "RaT(exec FP)", "delta(%)");
    for (std::size_t g = 0; g < sim::allGroups().size(); ++g) {
        const double drop = grid[0][g].meanThroughput;
        const double exec = grid[1][g].meanThroughput;
        std::printf("%-8s %14.3f %14.3f %+9.1f%%\n",
                    sim::groupName(sim::allGroups()[g]), drop, exec,
                    pct(drop, exec));
    }
    return 0;
}
