/**
 * @file
 * Compare all six scheduling techniques on a chosen multiprogrammed
 * workload — the experiment the paper's Figures 1 and 2 run at scale.
 *
 * Usage:
 *   policy_faceoff [prog1 prog2 [prog3 prog4]]
 * Default workload: art,mcf (a MEM2 pair where RaT shines).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "trace/profile.hh"

int
main(int argc, char **argv)
{
    using namespace rat;

    std::vector<std::string> programs;
    for (int i = 1; i < argc; ++i) {
        if (!trace::isSpec2000(argv[i])) {
            std::fprintf(stderr, "unknown program '%s'; known: ",
                         argv[i]);
            for (const auto &n : trace::spec2000Names())
                std::fprintf(stderr, "%s ", n.c_str());
            std::fprintf(stderr, "\n");
            return 1;
        }
        programs.emplace_back(argv[i]);
    }
    if (programs.empty())
        programs = {"art", "mcf"};

    // One campaign: the lineup on the workload, plus the
    // single-thread baselines Eq. 2 fairness needs.
    sim::CampaignSpec spec;
    spec.base.warmupCycles = 20000;
    spec.base.measureCycles = 100000;
    using core::PolicyKind;
    for (const PolicyKind kind :
         {PolicyKind::Icount, PolicyKind::Stall, PolicyKind::Flush,
          PolicyKind::Dcra, PolicyKind::HillClimbing, PolicyKind::Rat})
        spec.techniques.push_back(sim::techniqueOf(kind));
    spec.workloads = {sim::Workload::fromPrograms(programs)};
    const sim::BaselineIpcMap base =
        sim::baselineIpcs(sim::runCampaign(sim::baselineSpec(spec)));
    const sim::CampaignOutcome outcome = sim::runCampaign(spec);

    std::printf("workload: %s\n\n", spec.workloads[0].name.c_str());
    std::printf("%-14s %12s %10s %14s\n", "technique", "throughput",
                "fairness", "per-thread IPC");

    for (const sim::CampaignCell &cell : outcome.cells) {
        const sim::SimResult &r = cell.result;
        std::string ipcs;
        for (const auto &t : r.threads) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%s%.2f",
                          ipcs.empty() ? "" : "/", t.ipc);
            ipcs += buf;
        }
        std::printf("%-14s %12.3f %10.3f %14s\n", cell.technique.c_str(),
                    sim::throughput(r), sim::fairness(r, base),
                    ipcs.c_str());
    }

    std::printf("\nsingle-thread baselines: ");
    for (const auto &[prog, ipc] : base)
        std::printf("%s=%.2f ", prog.c_str(), ipc);
    std::printf("\n");
    return 0;
}
