/**
 * @file
 * Reproduces Figure 1: throughput (a) and fairness (b) of the static
 * I-fetch policies ICOUNT / STALL / FLUSH versus Runahead Threads over
 * the six Table 2 workload groups.
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace rat;
    using namespace rat::bench;
    using core::PolicyKind;

    banner("Figure 1 — I-fetch policies vs RaT (throughput & fairness)",
           "FLUSH > STALL > ICOUNT on MEM; RaT clearly ahead of all, "
           "biggest gap on MEM2/MEM4 (~+83%/+70% vs FLUSH in the paper)");

    const std::vector<sim::TechniqueSpec> lineup = {
        sim::techniqueOf(PolicyKind::Icount),
        sim::techniqueOf(PolicyKind::Stall),
        sim::techniqueOf(PolicyKind::Flush),
        sim::techniqueOf(PolicyKind::Rat)};
    std::vector<std::string> labels;
    for (const auto &t : lineup)
        labels.push_back(t.label);

    std::map<std::string, std::vector<double>> thr_rows, fair_rows;
    std::vector<std::string> group_order;

    const auto grid = runGrid(benchSpec(lineup), /*with_fairness=*/true);
    for (std::size_t g = 0; g < sim::allGroups().size(); ++g) {
        const std::string gname = sim::groupName(sim::allGroups()[g]);
        group_order.push_back(gname);
        for (std::size_t t = 0; t < lineup.size(); ++t) {
            thr_rows[gname].push_back(grid[t][g].meanThroughput);
            fair_rows[gname].push_back(grid[t][g].meanFairness);
        }
    }

    printGroupTable("Fig. 1(a) Throughput (Eq. 1 IPC)", labels, thr_rows,
                    group_order);
    printGroupTable("Fig. 1(b) Fairness (Eq. 2 harmonic mean)", labels,
                    fair_rows, group_order);

    // Headline deltas the paper quotes.
    const auto delta = [&](const char *g, unsigned tech_a,
                           unsigned tech_b) {
        return pct(thr_rows.at(g)[tech_a], thr_rows.at(g)[tech_b]);
    };
    std::printf("\nheadline (throughput): paper vs measured\n");
    std::printf("  RaT vs FLUSH, MEM2: paper +83%%, measured %+.0f%%\n",
                delta("MEM2", 3, 2));
    std::printf("  RaT vs FLUSH, MEM4: paper +70%%, measured %+.0f%%\n",
                delta("MEM4", 3, 2));
    const auto fdelta = [&](const char *g) {
        return pct(fair_rows.at(g)[3], fair_rows.at(g)[2]);
    };
    std::printf("headline (fairness):\n");
    std::printf("  RaT vs FLUSH, MEM2: paper +55%%, measured %+.0f%%\n",
                fdelta("MEM2"));
    std::printf("  RaT vs FLUSH, MEM4: paper +63%%, measured %+.0f%%\n",
                fdelta("MEM4"));
    return 0;
}
