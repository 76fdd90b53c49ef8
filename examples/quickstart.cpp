/**
 * @file
 * Quickstart: simulate a 2-thread SMT workload (one streaming
 * memory-bound program, one ILP program) under Runahead Threads and
 * print the headline statistics.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"

int
main()
{
    using namespace rat;

    // 1. Configure the paper's Table 1 processor, with RaT enabled.
    sim::SimConfig cfg;
    cfg.core.policy = core::PolicyKind::Rat;
    cfg.warmupCycles = 20000;
    cfg.measureCycles = 100000;

    // 2. Pick a workload: art (memory-bound streamer) + gzip (ILP).
    sim::Simulator simulator(cfg, {"art", "gzip"});

    // 3. Run warm-up plus the measured window.
    const sim::SimResult result = simulator.run();

    // 4. Report.
    std::printf("Runahead Threads quickstart (%llu measured cycles)\n",
                static_cast<unsigned long long>(result.cycles));
    std::printf("%-8s %10s %12s %10s %12s %12s\n", "thread", "IPC",
                "committed", "L2 MPKI", "RA episodes", "RA cycles");
    for (const sim::ThreadResult &t : result.threads) {
        std::printf("%-8s %10.3f %12llu %10.2f %12llu %12llu\n",
                    t.program.c_str(), t.ipc,
                    static_cast<unsigned long long>(
                        t.core.committedInsts),
                    t.l2Mpki,
                    static_cast<unsigned long long>(
                        t.core.runaheadEntries),
                    static_cast<unsigned long long>(
                        t.core.runaheadCycles));
    }
    std::printf("\nthroughput (Eq.1 average IPC): %.3f\n",
                result.throughputEq1());
    std::printf("total IPC:                     %.3f\n",
                result.totalIpc());

    // 5. Compare against the ICOUNT baseline: the same config with
    //    the ICOUNT technique applied.
    const sim::TechniqueSpec icount =
        sim::techniqueOf(core::PolicyKind::Icount);
    const double base = sim::throughput(
        sim::Simulator(sim::configFor(cfg, icount, 2), {"art", "gzip"})
            .run());
    const double rat = result.throughputEq1();
    std::printf("\nICOUNT baseline throughput:    %.3f\n", base);
    std::printf("RaT improvement:               %+.1f%%\n",
                100.0 * (rat / base - 1.0));
    return 0;
}
