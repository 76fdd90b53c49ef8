/**
 * @file
 * Ablation for the Section 3.3 claim: "using the runahead cache does
 * not have significant impact on performance in our SMT model". Runs
 * the MEM groups under RaT with and without the runahead cache.
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace rat;
    using namespace rat::bench;

    banner("Ablation — runahead cache on/off (Section 3.3)",
           "difference should be insignificant (the paper omits the "
           "runahead cache from RaT based on this result)");

    sim::TechniqueSpec with_rc = sim::techniqueOf(core::PolicyKind::Rat);
    with_rc.label = "RaT+RAcache";
    with_rc.rat.useRunaheadCache = true;
    const auto grid = runGrid(
        benchSpec({sim::techniqueOf(core::PolicyKind::Rat), with_rc}));

    std::printf("\n%-8s %14s %14s %10s\n", "group", "RaT", "RaT+RAcache",
                "delta(%)");
    double worst = 0.0;
    for (std::size_t g = 0; g < sim::allGroups().size(); ++g) {
        const double base = grid[0][g].meanThroughput;
        const double rc = grid[1][g].meanThroughput;
        const double d = pct(rc, base);
        worst = std::max(worst, std::abs(d));
        std::printf("%-8s %14.3f %14.3f %+9.1f%%\n",
                    sim::groupName(sim::allGroups()[g]), base, rc, d);
    }
    std::printf("\nlargest group-level |delta|: %.1f%% (paper: "
                "insignificant)\n", worst);
    return 0;
}
