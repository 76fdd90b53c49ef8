/**
 * @file
 * Reproduces Figure 4: isolating the two sources of RaT's improvement
 * plus its raw overhead (Section 6.1):
 *   - Prefetching: RaT vs RaT-with-prefetching-disabled (runahead
 *     episodes preserved, no lines fetched).
 *   - Resource availability: RaT-without-fetch-in-runahead vs STALL.
 *     Both stop fetching on a long-latency miss; the difference is the
 *     early release of already-held resources (INV folding and
 *     pseudo-retirement) — the paper's "early resource release" bar.
 *   - Overhead: degradation of the *co-running ILP threads* when a
 *     thread executes useless runahead episodes (no prefetch) instead
 *     of stalling quietly. The paper reports ~4% worst case.
 */

#include "bench/bench_util.hh"
#include "trace/profile.hh"

namespace {

using namespace rat;

/** ILP-class program by profile shape (no chasing, no heavy streaming). */
bool
isIlpProgram(const std::string &name)
{
    const trace::BenchmarkProfile &p = trace::spec2000(name);
    return p.chasePeriod == 0 && p.pStream < 0.2;
}

/** Mean IPC of the ILP-class threads across a group's results. */
double
ilpCoRunnerIpc(const sim::GroupMetrics &gm)
{
    double sum = 0.0;
    unsigned n = 0;
    for (const sim::SimResult &r : gm.results) {
        for (const sim::ThreadResult &t : r.threads) {
            if (isIlpProgram(t.program)) {
                sum += t.ipc;
                ++n;
            }
        }
    }
    return n ? sum / n : 0.0;
}

} // namespace

int
main()
{
    using namespace rat::bench;
    using core::PolicyKind;

    banner("Figure 4 — sources of RaT improvement",
           "prefetching dominates (~58% avg, most on MIX/MEM ~56%/109%); "
           "resource availability small (~3% avg, ~22% on MIX); "
           "co-runner overhead negligible (~4%)");

    sim::TechniqueSpec rat_nopf = sim::techniqueOf(PolicyKind::Rat);
    rat_nopf.label = "RaT-noPF";
    rat_nopf.rat.disablePrefetch = true;

    sim::TechniqueSpec rat_nofetch = sim::techniqueOf(PolicyKind::Rat);
    rat_nofetch.label = "RaT-noFetch";
    rat_nofetch.rat.noFetchInRunahead = true;

    const auto grid = runGrid(benchSpec(
        {sim::techniqueOf(PolicyKind::Stall), sim::techniqueOf(PolicyKind::Rat),
         rat_nopf, rat_nofetch}));

    std::printf("\n%-8s %14s %18s %16s\n", "group", "prefetch(%)",
                "resource-avail(%)", "overhead(%)");

    double sum_pf = 0.0, sum_ra = 0.0, sum_ov = 0.0;
    unsigned n_ov = 0;
    for (std::size_t gi = 0; gi < sim::allGroups().size(); ++gi) {
        const sim::WorkloadGroup g = sim::allGroups()[gi];
        const sim::GroupMetrics &m_stall = grid[0][gi];
        const sim::GroupMetrics &m_rat = grid[1][gi];
        const sim::GroupMetrics &m_nopf = grid[2][gi];
        const sim::GroupMetrics &m_nofetch = grid[3][gi];

        // Prefetching contribution: full RaT over prefetch-less RaT.
        const double prefetch =
            pct(m_rat.meanThroughput, m_nopf.meanThroughput);
        // Early resource release: no-extra-fetch RaT over STALL (both
        // stop fetching; only RaT releases held resources early).
        const double resource =
            pct(m_nofetch.meanThroughput, m_stall.meanThroughput);
        // Overhead: ILP co-runners next to useless runahead episodes
        // versus next to a quietly stalled thread.
        const double co_nopf = ilpCoRunnerIpc(m_nopf);
        const double co_stall = ilpCoRunnerIpc(m_stall);
        const bool has_ilp = co_stall > 0.0;
        const double overhead = has_ilp ? pct(co_nopf, co_stall) : 0.0;

        if (has_ilp) {
            std::printf("%-8s %14.1f %18.1f %16.1f\n", sim::groupName(g),
                        prefetch, resource, overhead);
            sum_ov += overhead;
            ++n_ov;
        } else {
            std::printf("%-8s %14.1f %18.1f %16s\n", sim::groupName(g),
                        prefetch, resource, "n/a");
        }
        sum_pf += prefetch;
        sum_ra += resource;
    }
    const double n = static_cast<double>(sim::allGroups().size());
    std::printf("%-8s %14.1f %18.1f %16.1f\n", "AVG", sum_pf / n,
                sum_ra / n, n_ov ? sum_ov / n_ov : 0.0);

    std::printf("\npaper: prefetch ~58%% avg (MIX 56%%, MEM 109%%); "
                "resource availability ~3%% avg (MIX 22%%);\n"
                "overhead ~4%% worst-case degradation of co-runners\n");
    return 0;
}
