/**
 * @file
 * Reproduces Figure 2: throughput (a) and fairness (b) of the dynamic
 * resource-control policies DCRA / Hill Climbing versus ICOUNT and
 * Runahead Threads over the Table 2 workload groups.
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace rat;
    using namespace rat::bench;
    using core::PolicyKind;

    banner("Figure 2 — resource-control policies vs RaT",
           "DCRA >= HillClimbing on ILP, HillClimbing > DCRA on MIX; "
           "RaT above both everywhere, biggest on MEM (~+75%/+53% vs "
           "DCRA/HillClimbing in the paper)");

    const std::vector<sim::TechniqueSpec> lineup = {
        sim::techniqueOf(PolicyKind::Icount),
        sim::techniqueOf(PolicyKind::Dcra),
        sim::techniqueOf(PolicyKind::HillClimbing),
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

    printGroupTable("Fig. 2(a) Throughput (Eq. 1 IPC)", labels, thr_rows,
                    group_order);
    printGroupTable("Fig. 2(b) Fairness (Eq. 2 harmonic mean)", labels,
                    fair_rows, group_order);

    BenchReport report("fig2_resource");
    report.addGroupTable("Fig. 2(a) Throughput (Eq. 1 IPC)", labels,
                         thr_rows, group_order);
    report.addGroupTable("Fig. 2(b) Fairness (Eq. 2 harmonic mean)",
                         labels, fair_rows, group_order);

    const struct {
        const char *label;
        double measured;
    } headlines[] = {
        {"RaT vs DCRA, MEM2 (%)",
         pct(thr_rows.at("MEM2")[3], thr_rows.at("MEM2")[1])},
        {"RaT vs DCRA, MEM4 (%)",
         pct(thr_rows.at("MEM4")[3], thr_rows.at("MEM4")[1])},
        {"RaT vs HillClimbing, MEM2 (%)",
         pct(thr_rows.at("MEM2")[3], thr_rows.at("MEM2")[2])},
        {"RaT vs HillClimbing, MEM4 (%)",
         pct(thr_rows.at("MEM4")[3], thr_rows.at("MEM4")[2])},
    };
    for (const auto &h : headlines)
        report.addHeadline(h.label, h.measured);

    std::printf("\nheadline (throughput): paper vs measured\n");
    std::printf("  RaT vs DCRA, MEM2: paper +75%%, measured %+.0f%%\n",
                headlines[0].measured);
    std::printf("  RaT vs DCRA, MEM4: paper +74%%, measured %+.0f%%\n",
                headlines[1].measured);
    std::printf("  RaT vs HillClimbing, MEM2: paper +53%%, measured "
                "%+.0f%%\n",
                headlines[2].measured);
    std::printf("  RaT vs HillClimbing, MEM4: paper +58%%, measured "
                "%+.0f%%\n",
                headlines[3].measured);

    report.write();
    return 0;
}
