/**
 * @file
 * Extension experiment — the hybrid the paper names as future work in
 * Section 5.2: Runahead Threads combined with DCRA resource caps. RaT
 * alone has no direct knowledge of resource allocation; DCRA gates
 * threads that over-consume, which can matter when a runahead thread's
 * speculative work competes with normal threads.
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace rat;
    using namespace rat::bench;
    using core::PolicyKind;

    banner("Extension — RaT + DCRA hybrid (Section 5.2 future work)",
           "the hybrid should track plain RaT closely; any gain shows up "
           "where speculative runahead work would otherwise crowd out "
           "normal threads");

    const auto grid = runGrid(benchSpec(
        {sim::techniqueOf(PolicyKind::Dcra), sim::techniqueOf(PolicyKind::Rat),
         sim::techniqueOf(PolicyKind::RatDcra)}));

    std::printf("\n%-8s %12s %12s %12s %10s\n", "group", "DCRA", "RaT",
                "RaT+DCRA", "vs RaT");
    for (std::size_t g = 0; g < sim::allGroups().size(); ++g) {
        const double dcra = grid[0][g].meanThroughput;
        const double rat = grid[1][g].meanThroughput;
        const double both = grid[2][g].meanThroughput;
        std::printf("%-8s %12.3f %12.3f %12.3f %+9.1f%%\n",
                    sim::groupName(sim::allGroups()[g]), dcra, rat, both,
                    pct(both, rat));
    }
    return 0;
}
