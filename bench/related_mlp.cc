/**
 * @file
 * Related-work comparison (Section 2): RaT versus the MLP-aware fetch
 * policy of Eyerman & Eeckhout [15]. The paper argues the MLP window's
 * hardware bound ("the long-latency shift register size") leaves
 * distant memory-level parallelism unexploited, while runahead keeps
 * going for the whole miss; this bench quantifies that argument.
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace rat;
    using namespace rat::bench;
    using core::PolicyKind;

    banner("Related work — MLP-aware fetch policy [15] vs RaT",
           "MLP-aware sits between STALL and RaT; RaT wins most where "
           "MLP extends beyond the bounded window (streaming MEM "
           "workloads)");

    const auto grid = runGrid(benchSpec(
        {sim::techniqueOf(PolicyKind::Stall),
         sim::techniqueOf(PolicyKind::MlpAware),
         sim::techniqueOf(PolicyKind::Rat)}));

    std::printf("\n%-8s %12s %12s %12s %12s\n", "group", "STALL", "MLP",
                "RaT", "RaT vs MLP");
    for (std::size_t g = 0; g < sim::allGroups().size(); ++g) {
        const double stall = grid[0][g].meanThroughput;
        const double mlp_thr = grid[1][g].meanThroughput;
        const double rat = grid[2][g].meanThroughput;
        std::printf("%-8s %12.3f %12.3f %12.3f %+11.1f%%\n",
                    sim::groupName(sim::allGroups()[g]), stall, mlp_thr,
                    rat, pct(rat, mlp_thr));
    }
    return 0;
}
