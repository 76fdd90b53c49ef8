/**
 * @file
 * Reproduces Figure 5: average physical (renaming) registers allocated
 * per cycle in normal mode versus runahead mode, per workload group,
 * under Runahead Threads.
 */

#include "bench/bench_util.hh"

int
main()
{
    using namespace rat;
    using namespace rat::bench;

    banner("Figure 5 — registers allocated per cycle: normal vs runahead",
           "runahead mode holds markedly fewer registers; on MEM "
           "workloads less than half of normal mode");

    const auto grid =
        runGrid(benchSpec({sim::techniqueOf(core::PolicyKind::Rat)}));

    std::printf("\n%-8s %14s %16s %10s\n", "group", "normal-mode",
                "runahead-mode", "ratio");

    for (const sim::GroupMetrics &gm : grid[0]) {
        // Per-thread average register occupancy, aggregated over all
        // threads of all workloads in the group, weighted by cycles.
        double normal_reg_cycles = 0.0, normal_cycles = 0.0;
        double ra_reg_cycles = 0.0, ra_cycles = 0.0;
        for (const sim::SimResult &r : gm.results) {
            for (const sim::ThreadResult &t : r.threads) {
                normal_reg_cycles +=
                    static_cast<double>(t.core.normalRegCycles);
                normal_cycles +=
                    static_cast<double>(t.core.normalCycles);
                ra_reg_cycles +=
                    static_cast<double>(t.core.runaheadRegCycles);
                ra_cycles += static_cast<double>(t.core.runaheadCycles);
            }
        }
        const double avg_normal =
            normal_cycles > 0 ? normal_reg_cycles / normal_cycles : 0.0;
        const double avg_ra =
            ra_cycles > 0 ? ra_reg_cycles / ra_cycles : 0.0;
        std::printf("%-8s %14.1f %16.1f %9.2fx\n",
                    sim::groupName(gm.group), avg_normal, avg_ra,
                    avg_normal > 0 ? avg_ra / avg_normal : 0.0);
    }

    std::printf("\npaper: runahead-mode register usage is well below "
                "normal mode; for MEM workloads\nless than half "
                "(Section 6.2, Fig. 5)\n");
    return 0;
}
