/**
 * @file
 * Reproduces Figure 3: Energy-Delay^2 of each technique normalized to
 * ICOUNT per workload group (lower is better; Section 5.3's model
 * counts every executed instruction as one energy unit).
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace rat;
    using namespace rat::bench;
    using core::PolicyKind;

    banner("Figure 3 — Energy-Delay^2 normalized to ICOUNT",
           "RaT < 1.0 on average (~0.6 for 2-thread, ~0.78 for 4-thread "
           "in the paper) despite executing extra instructions; FLUSH "
           "~0.78");

    // ICOUNT first: every other column is normalized to it.
    const std::vector<sim::TechniqueSpec> lineup = {
        sim::techniqueOf(PolicyKind::Icount),
        sim::techniqueOf(PolicyKind::Stall),
        sim::techniqueOf(PolicyKind::Flush),
        sim::techniqueOf(PolicyKind::Dcra),
        sim::techniqueOf(PolicyKind::HillClimbing),
        sim::techniqueOf(PolicyKind::Rat)};
    std::vector<std::string> labels;
    for (std::size_t t = 1; t < lineup.size(); ++t)
        labels.push_back(lineup[t].label);

    std::map<std::string, std::vector<double>> rows;
    std::vector<std::string> group_order;

    const auto grid = runGrid(benchSpec(lineup));
    for (std::size_t g = 0; g < sim::allGroups().size(); ++g) {
        const std::string gname = sim::groupName(sim::allGroups()[g]);
        group_order.push_back(gname);
        const sim::GroupMetrics &base = grid[0][g];
        for (std::size_t t = 1; t < lineup.size(); ++t) {
            const sim::GroupMetrics &gm = grid[t][g];
            // Normalize workload-by-workload, then average (matching
            // the paper's per-group normalized bars).
            double sum = 0.0;
            for (std::size_t i = 0; i < gm.results.size(); ++i) {
                const double b = sim::ed2(base.results[i]);
                const double v = sim::ed2(gm.results[i]);
                sum += (b > 0.0) ? v / b : 0.0;
            }
            rows[gname].push_back(sum /
                                  static_cast<double>(gm.results.size()));
        }
    }

    printGroupTable("Fig. 3 ED^2 relative to ICOUNT (lower = better)",
                    labels, rows, group_order);

    double rat2 = 0.0, rat4 = 0.0, flush_all = 0.0;
    rat2 = (rows.at("ILP2")[4] + rows.at("MIX2")[4] + rows.at("MEM2")[4]) /
           3.0;
    rat4 = (rows.at("ILP4")[4] + rows.at("MIX4")[4] + rows.at("MEM4")[4]) /
           3.0;
    for (const auto &g : group_order)
        flush_all += rows.at(g)[1];
    flush_all /= static_cast<double>(group_order.size());

    std::printf("\nheadline: paper vs measured\n");
    std::printf("  RaT ED^2, 2-thread groups: paper 0.60, measured "
                "%.2f\n", rat2);
    std::printf("  RaT ED^2, 4-thread groups: paper 0.78, measured "
                "%.2f\n", rat4);
    std::printf("  FLUSH ED^2 overall: paper 0.78, measured %.2f\n",
                flush_all);
    return 0;
}
