/**
 * @file
 * Reproduces Figure 6: throughput as a function of the renaming
 * register-file size (64..320) for FLUSH versus RaT, separately for
 * the 2-thread (a) and 4-thread (b) workload groups.
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace rat;
    using namespace rat::bench;
    using core::PolicyKind;

    banner("Figure 6 — throughput vs register-file size (FLUSH vs RaT)",
           "throughput falls as registers shrink, but far less with RaT;"
           " RaT@128 >= FLUSH@320 for MIX/MEM (the paper's 60% register"
           " reduction claim)");

    const unsigned sizes[] = {64, 128, 192, 256, 320};

    // rows[group][technique-size column]
    std::map<std::string, std::vector<double>> rows;
    std::vector<std::string> labels;
    for (const char *tech : {"FLUSH", "RaT"}) {
        for (const unsigned s : sizes)
            labels.push_back(std::string(tech) + "@" +
                             std::to_string(s));
    }

    std::vector<std::string> group_order;
    for (const sim::WorkloadGroup g : sim::allGroups())
        group_order.push_back(sim::groupName(g));

    // One campaign per size: cells of different sizes never share a
    // prewarm identity. The FLUSH columns come before the RaT ones.
    std::map<std::string, std::vector<double>> rat_cols;
    for (const unsigned size : sizes) {
        sim::SimConfig cfg = benchConfig();
        cfg.core.intRegs = size;
        cfg.core.fpRegs = size;
        const auto grid = runGrid(
            benchSpec({sim::techniqueOf(PolicyKind::Flush),
                       sim::techniqueOf(PolicyKind::Rat)},
                      cfg));
        for (std::size_t g = 0; g < group_order.size(); ++g) {
            rows[group_order[g]].push_back(grid[0][g].meanThroughput);
            rat_cols[group_order[g]].push_back(grid[1][g].meanThroughput);
        }
    }
    for (const auto &g : group_order)
        rows[g].insert(rows[g].end(), rat_cols[g].begin(),
                       rat_cols[g].end());

    printGroupTable("Fig. 6 Throughput (Eq. 1 IPC) by register-file size",
                    labels, rows, group_order);

    BenchReport report("fig6_regfile");
    report.addGroupTable(
        "Fig. 6 Throughput (Eq. 1 IPC) by register-file size", labels,
        rows, group_order);

    // The paper's Section 6.2 headline comparisons.
    const auto col = [&](bool rat, unsigned size_idx) {
        return (rat ? 5u : 0u) + size_idx;
    };
    std::printf("\nheadline: RaT@128 vs FLUSH@320 (throughput ratio; "
                "paper: +4/20/85%% for 2T ILP/MIX/MEM,\n"
                "+0.2/21/92%% for 4T):\n");
    for (const auto &g : group_order) {
        const double rat128 = rows.at(g)[col(true, 1)];
        const double flush320 = rows.at(g)[col(false, 4)];
        const double gain = pct(rat128, flush320);
        report.addHeadline("RaT@128 vs FLUSH@320, " + g + " (%)", gain);
        std::printf("  %-6s %+7.1f%%\n", g.c_str(), gain);
    }
    std::printf("\nslowdown 320->64 (paper MEM4: FLUSH -27%%, RaT "
                "-15%%):\n");
    for (const auto &g : group_order) {
        const double f =
            pct(rows.at(g)[col(false, 0)], rows.at(g)[col(false, 4)]);
        const double r =
            pct(rows.at(g)[col(true, 0)], rows.at(g)[col(true, 4)]);
        report.addHeadline("slowdown 320->64 FLUSH, " + g + " (%)", f);
        report.addHeadline("slowdown 320->64 RaT, " + g + " (%)", r);
        std::printf("  %-6s FLUSH %+6.1f%%   RaT %+6.1f%%\n", g.c_str(),
                    f, r);
    }

    report.write();
    return 0;
}
