/**
 * @file
 * Reproduces the Table 2 methodology (Section 4): characterize each
 * SPEC2000 program by its single-threaded L2 cache miss rate, classify
 * ILP vs MEM, and print the resulting 2- and 4-thread workload table.
 */

#include <algorithm>

#include "bench/bench_util.hh"
#include "trace/profile.hh"

int
main()
{
    using namespace rat;
    using namespace rat::bench;

    banner("Table 2 — workload characterization and classification",
           "mcf/art/swim/twolf/vpr/parser/equake/lucas/applu/ammp are "
           "memory-bound; gzip/gcc/eon/... are ILP; MIX pairs one of "
           "each");

    struct Row {
        std::string name;
        double ipc;
        double mpki;
    };
    std::vector<Row> rows;

    // Characterize every program in a single-threaded processor, the
    // paper's methodology for building Table 2: the single-thread
    // baselines of the Table 2 groups, in allPrograms() order.
    std::map<std::string, sim::ThreadResult> single;
    for (const sim::CampaignCell &cell :
         sim::runCampaign(sim::baselineSpec(benchSpec(
                              {sim::techniqueOf(core::PolicyKind::Icount)})))
             .cells)
        single.emplace(cell.programs.front(), cell.result.threads.at(0));
    for (const std::string &prog : sim::allPrograms()) {
        const sim::ThreadResult &t = single.at(prog);
        rows.push_back({prog, t.ipc, t.l2Mpki});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.mpki > b.mpki; });

    constexpr double kMemThresholdMpki = 5.0;
    std::printf("\n%-10s %8s %10s %8s\n", "program", "ST IPC", "L2 MPKI",
                "class");
    for (const Row &r : rows) {
        std::printf("%-10s %8.3f %10.2f %8s\n", r.name.c_str(), r.ipc,
                    r.mpki, r.mpki > kMemThresholdMpki ? "MEM" : "ILP");
    }

    std::printf("\nTable 2 workloads (verbatim from the paper):\n");
    for (const sim::WorkloadGroup g : sim::allGroups()) {
        std::printf("\n%s:\n", sim::groupName(g));
        for (const sim::Workload &w : sim::workloadsOf(g))
            std::printf("  %s\n", w.name.c_str());
    }
    return 0;
}
