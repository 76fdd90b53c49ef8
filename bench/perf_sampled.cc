/**
 * perf_sampled: speedup and accuracy of phase-sampled simulation
 * (`--sampled`, DESIGN.md "Sampled simulation") against full detailed
 * runs.
 *
 * Grid: the pinned operating point's MIX2 pair under all nine
 * scheduling policies, plus a 4-thread MIX4 mix under the headline
 * policies — exactly the sweep shape sampling exists to accelerate.
 * For every cell the bench runs the full measured window and the
 * sampled estimate, then reports:
 *
 *   - per-policy hmean-IPC error of the estimate (deterministic — the
 *     simulator has no host randomness, so these numbers are stable
 *     across runs and machines),
 *   - the detailed-work reduction (full warmup+measure cycles vs the
 *     sum of per-sample detailed cycles), also deterministic,
 *   - wall-clock speedup of the whole sweep, where the one-off
 *     profiling + checkpoint-walk cost amortizes across policies;
 *   - the one-off profiling on its own: each mix's phase plan is timed
 *     before its sweep, while it is not yet memoized (the sweep wall
 *     still includes it).
 *
 * With RATSIM_SAMPLED_STRICT=1 (CI) the bench pins the contract at the
 * pinned operating point: detailed-work reduction >= 5x and worst
 * hmean-IPC error <= 2%, else it exits non-zero. Strict mode ignores
 * the RATSIM_WARMUP/RATSIM_MEASURE smoke scaling — the contract is
 * only meaningful at the operating point's own windows.
 *
 * Output: tables on stdout plus BENCH_sampled.json via BenchReport.
 */

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "policy/factory.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"

namespace {

using namespace rat;

/**
 * The pinned operating point (see tests/sim/test_sampled.cc, which
 * pins the same numbers): MIX2 mcf,eon at seed 6, 4 phases of
 * 8192-inst windows over a 48-window span, 2k + 23.25k detailed
 * cycles per sample against a 5k + 500k-cycle full window — an
 * exactly 5x detailed-work reduction at 0.80% worst-policy error.
 */
constexpr unsigned kPhases = 4;
constexpr unsigned kPhaseWindow = 8192;
constexpr unsigned kPhaseSpan = 48;
constexpr std::uint64_t kSampleWarmup = 2000;
constexpr std::uint64_t kSampleMeasure = 23250;
constexpr std::uint64_t kFullWarmup = 5000;
constexpr std::uint64_t kFullMeasure = 500000;
constexpr std::uint64_t kPrewarm = 100000;
constexpr std::uint64_t kSeed = 6;

double
wallSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

sim::SimConfig
cellConfig(const std::vector<std::string> &mix, core::PolicyKind policy,
           bool sampled, bool strict)
{
    sim::SimConfig cfg;
    cfg.core.numThreads = static_cast<unsigned>(mix.size());
    cfg.core.policy = policy;
    if (strict) {
        cfg.seed = kSeed;
        cfg.prewarmInsts = kPrewarm;
        cfg.warmupCycles = kFullWarmup;
        cfg.measureCycles = kFullMeasure;
    } else {
        cfg = rat::bench::benchConfig();
        cfg.core.numThreads = static_cast<unsigned>(mix.size());
        cfg.core.policy = policy;
    }
    if (sampled) {
        cfg.sampled = true;
        cfg.samplePhases = kPhases;
        cfg.phaseWindow = kPhaseWindow;
        cfg.phaseSpanWindows = kPhaseSpan;
        cfg.sampleWarmupCycles = kSampleWarmup;
        cfg.sampleMeasureCycles =
            strict ? kSampleMeasure
                   : std::max<std::uint64_t>(cfg.measureCycles / 8, 500);
    }
    return cfg;
}

} // namespace

int
main()
{
    using namespace rat::bench;

    const bool strict = []() {
        const char *v = std::getenv("RATSIM_SAMPLED_STRICT");
        return v && *v && *v != '0';
    }();

    banner("perf_sampled — phase-sampled simulation vs full detailed runs",
           ">=5x detailed-work reduction at <=2% worst-policy hmean-IPC "
           "error (strict mode pins both)");

    const std::vector<std::string> mix2 = {"mcf", "eon"};
    const std::vector<std::string> mix4 = {"art", "mcf", "gzip", "crafty"};
    const std::vector<core::PolicyKind> mix2Policies = {
        core::PolicyKind::RoundRobin, core::PolicyKind::Icount,
        core::PolicyKind::Stall,      core::PolicyKind::Flush,
        core::PolicyKind::Dcra,       core::PolicyKind::HillClimbing,
        core::PolicyKind::Rat,        core::PolicyKind::RatDcra,
        core::PolicyKind::MlpAware,
    };
    const std::vector<core::PolicyKind> mix4Policies = {
        core::PolicyKind::Icount, core::PolicyKind::Flush,
        core::PolicyKind::Rat};

    struct SweepRow {
        std::string label;
        double fullHmean = 0.0;
        double sampledHmean = 0.0;
        double errorPct = 0.0;
    };
    std::vector<SweepRow> rows;
    double fullSeconds = 0.0, sampledSeconds = 0.0;
    double worstMix2Error = 0.0, worstMix4Error = 0.0;
    double reduction = 0.0;

    double planSeconds = 0.0;
    const auto sweep = [&](const std::vector<std::string> &mix,
                           const std::vector<core::PolicyKind> &policies,
                           double &worstError) {
        std::string mixName;
        for (const auto &p : mix)
            mixName += (mixName.empty() ? "" : ",") + p;

        // The mix's phase plan on its own, before any cell memoizes it;
        // the policies of the sweep below then share it.
        const auto planStart = std::chrono::steady_clock::now();
        sim::samplePlanFor(cellConfig(mix, policies[0], true, strict), mix);
        const double planWall = wallSeconds(planStart);
        std::printf("phase plan %-20s %8.1f ms\n", mixName.c_str(),
                    planWall * 1e3);
        planSeconds += planWall;
        sampledSeconds += planWall;
        for (const core::PolicyKind policy : policies) {
            const sim::SimConfig fullCfg =
                cellConfig(mix, policy, false, strict);
            const sim::SimConfig sampCfg =
                cellConfig(mix, policy, true, strict);

            auto t0 = std::chrono::steady_clock::now();
            sim::Simulator full(fullCfg, mix);
            const sim::SimResult fr = full.run();
            fullSeconds += wallSeconds(t0);

            t0 = std::chrono::steady_clock::now();
            const sim::SimResult sr = sim::simulateCell(sampCfg, mix);
            sampledSeconds += wallSeconds(t0);

            SweepRow row;
            row.label =
                mixName + " / " + policy::policyKindName(policy);
            row.fullHmean = sim::hmeanIpc(fr);
            row.sampledHmean = sim::hmeanIpc(sr);
            row.errorPct =
                row.fullHmean > 0.0
                    ? 100.0 *
                          std::abs(row.sampledHmean - row.fullHmean) /
                          row.fullHmean
                    : 0.0;
            worstError = std::max(worstError, row.errorPct);
            rows.push_back(row);

            if (reduction == 0.0) {
                const trace::PhaseProfile &plan =
                    sim::samplePlanFor(sampCfg, mix);
                const double detailed =
                    static_cast<double>(plan.samples.size()) *
                    static_cast<double>(sampCfg.sampleWarmupCycles +
                                        sampCfg.sampleMeasureCycles);
                reduction =
                    static_cast<double>(fullCfg.warmupCycles +
                                        fullCfg.measureCycles) /
                    detailed;
            }
        }
    };

    sweep(mix2, mix2Policies, worstMix2Error);
    sweep(mix4, mix4Policies, worstMix4Error);

    std::printf("\n%-28s %12s %12s %10s\n", "cell", "full hmean",
                "sampled", "error %");
    for (const SweepRow &row : rows)
        std::printf("%-28s %12.4f %12.4f %10.2f\n", row.label.c_str(),
                    row.fullHmean, row.sampledHmean, row.errorPct);

    const double speedup =
        sampledSeconds > 0.0 ? fullSeconds / sampledSeconds : 0.0;
    std::printf("\nfull sweep wall:     %8.2fs\n", fullSeconds);
    std::printf("sampled sweep wall:  %8.2fs  (profiling + checkpoint "
                "walk amortized across policies)\n",
                sampledSeconds);
    std::printf("  of which phase plans: %6.1f ms (one per mix)\n",
                planSeconds * 1e3);
    std::printf("wall-clock speedup:  %8.2fx\n", speedup);
    std::printf("detailed-work reduction: %.2fx (deterministic)\n",
                reduction);
    std::printf("worst hmean-IPC error: MIX2 %.2f%%, MIX4 %.2f%% "
                "(deterministic)\n",
                worstMix2Error, worstMix4Error);

    BenchReport report("sampled");
    {
        std::map<std::string, std::vector<double>> table;
        std::vector<std::string> order;
        for (const SweepRow &row : rows) {
            table[row.label] = {row.fullHmean, row.sampledHmean,
                                row.errorPct};
            order.push_back(row.label);
        }
        report.addGroupTable("full vs sampled hmean IPC",
                             {"full", "sampled", "error%"}, table,
                             order);
    }
    report.addHeadline("wall-clock speedup (x)", speedup);
    report.addHeadline("phase plan wall (ms, all mixes)", planSeconds * 1e3);
    report.addHeadline("detailed-work reduction (x)", reduction);
    report.addHeadline("worst MIX2 hmean-IPC error (%)", worstMix2Error);
    report.addHeadline("worst MIX4 hmean-IPC error (%)", worstMix4Error);
    report.addHeadline("strict mode", strict ? 1.0 : 0.0);
    report.write();

    if (strict) {
        bool ok = true;
        if (reduction < 5.0) {
            std::printf("STRICT FAIL: detailed-work reduction %.2fx "
                        "< 5x\n",
                        reduction);
            ok = false;
        }
        if (worstMix2Error > 2.0) {
            std::printf("STRICT FAIL: worst MIX2 hmean-IPC error "
                        "%.2f%% > 2%%\n",
                        worstMix2Error);
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("\nstrict contract met: %.2fx reduction, worst "
                    "MIX2 error %.2f%%\n",
                    reduction, worstMix2Error);
    }
    return 0;
}
