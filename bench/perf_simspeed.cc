/**
 * perf_simspeed: wall-clock simulator throughput of the host-side
 * execution modes — quiescence-aware cycle skipping vs per-cycle
 * ticking (DESIGN.md "Cycle skipping & quiescence invariants") — and
 * the event tracer's overhead.
 *
 * Every paper figure is a sweep over techniques x workloads x resource
 * sizes, so simulated-MIPS is the budget that bounds how many scenarios
 * a campaign can explore. Three sweeps:
 *
 *  1. RaT on the 4-thread MIX workloads, skip vs ticked. Both cells
 *     must produce byte-identical serialized results — the bench
 *     aborts (and the bench smoke ctest fails) on any divergence.
 *  2. The MEM-dominated 2-thread group (Table 2 MEM2) under the
 *     baseline long-latency policies (ICOUNT, STALL, DCRA), skip vs
 *     ticked. These are the workloads whose dead cycles skipping
 *     elides; per-phase skipped-cycle counts are reported alongside
 *     the speedup.
 *  3. Event-tracer overhead: the fastest mode with tracing off vs all
 *     categories streaming to /dev/null. The off row guards the
 *     zero-cost-when-off claim; traced runs must serialize identical
 *     results (observation only) or the bench aborts.
 *
 * Output: the usual tables on stdout plus BENCH_simspeed.json through
 * BenchReport (per-cell series and the headline speedups).
 *
 * Extra env knobs (on top of bench_util.hh):
 *   RATSIM_SPEED_WORKLOADS  cap on MIX4 workloads timed (default: all 8)
 *   RATSIM_SKIP_WORKLOADS   cap on MEM2 workloads timed (default: all 10)
 *   RATSIM_TRACE_WORKLOADS  cap on tracer-overhead workloads (default 2)
 */

#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "report/serialize.hh"
#include "sim/simulator.hh"

namespace {

using namespace rat;

struct ModeSample {
    double seconds = 0.0;     ///< measured-window wall seconds
    double mips = 0.0;        ///< committed Minsts / measured second
    double prewarmSec = 0.0;  ///< untimed phases (prewarm + warmup)
    std::string resultJson;   ///< full serialized SimResult
    std::uint64_t committed = 0;
    std::uint64_t warmupSkipped = 0;  ///< warmup cycles fast-forwarded
    std::uint64_t measureSkipped = 0; ///< measured cycles fast-forwarded
};

ModeSample
timeOne(const sim::SimConfig &base, const sim::Workload &w,
        core::PolicyKind policy, bool skip,
        const std::string &trace_out = {})
{
    sim::SimConfig cfg = base;
    cfg.core.policy = policy;
    cfg.core.cycleSkipping = skip;
    cfg.traceOut = trace_out;

    sim::Simulator simulator(cfg, w.programs);
    sim::PhaseTiming t;
    const sim::SimResult r = simulator.run(&t);

    // Throughput over the measured window only: SimResult's committed
    // counts cover exactly that window (stats reset after warmup), so
    // numerator and denominator describe the same cycles.
    ModeSample s;
    s.seconds = t.measureSeconds;
    s.prewarmSec = t.prewarmSeconds + t.warmupSeconds;
    s.committed = r.committedTotal();
    s.warmupSkipped = t.warmupSkippedCycles;
    s.measureSkipped = t.measureSkippedCycles;
    if (s.seconds > 0.0)
        s.mips = static_cast<double>(s.committed) / 1e6 / s.seconds;
    s.resultJson = report::toJson(r).dump();
    return s;
}

std::size_t
cappedCount(const char *env, std::size_t all)
{
    const std::uint64_t cap = bench::envU64(env, all);
    return std::min<std::size_t>(all, static_cast<std::size_t>(cap));
}

} // namespace

int
main()
{
    using namespace rat;

    // The tracing sweep's "wrote trace" inform lines would interleave
    // with the tables on a merged stdout/stderr capture.
    setLogLevel(LogLevel::Warn);

    bench::banner(
        "perf_simspeed: cycle-skip execution modes",
        "skip and tick cells bit-identical; cycle skipping well above "
        "1.5x simulated MIPS on MEM-dominated mixes under the baseline "
        "policies");

    const sim::SimConfig base = bench::benchConfig();
    bench::BenchReport bench_report("simspeed");

    // ---- sweep 1: RaT on MIX4, skip vs tick ------------------------------
    const auto &mix4 = sim::workloadsOf(sim::WorkloadGroup::MIX4);
    const std::size_t mix4_count =
        cappedCount("RATSIM_SPEED_WORKLOADS", mix4.size());
    if (mix4_count < mix4.size()) {
        std::printf("note: timing %zu of %zu MIX4 workloads "
                    "(RATSIM_SPEED_WORKLOADS)\n",
                    mix4_count, mix4.size());
    }

    const std::vector<std::string> grid_labels = {"ev+tick", "ev+skip",
                                                  "skip x"};
    std::map<std::string, std::vector<double>> grid_rows;
    std::vector<std::string> grid_order;

    double sum_event_sec = 0.0, sum_skip_sec = 0.0, sum_prewarm_sec = 0.0;
    std::uint64_t sum_committed = 0;

    for (std::size_t i = 0; i < mix4_count; ++i) {
        const sim::Workload &w = mix4[i];
        const ModeSample ev_tick =
            timeOne(base, w, core::PolicyKind::Rat, false);
        const ModeSample ev_skip =
            timeOne(base, w, core::PolicyKind::Rat, true);

        // The mode contract: same simulation, only faster. A
        // divergence aborts the bench (and the bench smoke ctest).
        if (ev_skip.resultJson != ev_tick.resultJson) {
            fatal("execution modes diverged on workload '%s'",
                  w.name.c_str());
        }

        const double skip_x =
            ev_tick.mips > 0.0 ? ev_skip.mips / ev_tick.mips : 0.0;
        grid_rows[w.name] = {ev_tick.mips, ev_skip.mips, skip_x};
        grid_order.push_back(w.name);

        sum_event_sec += ev_tick.seconds;
        sum_skip_sec += ev_skip.seconds;
        sum_prewarm_sec += ev_tick.prewarmSec + ev_skip.prewarmSec;
        sum_committed += ev_skip.committed;
    }

    bench::printGroupTable(
        "RaT on MIX4: simulated MIPS by execution mode (ev=event)",
        grid_labels, grid_rows, grid_order);
    bench_report.addGroupTable(
        "RaT on MIX4: simulated MIPS by execution mode (skip x = "
        "ev+skip/ev+tick)",
        grid_labels, grid_rows, grid_order);

    // ---- sweep 2: MEM-dominated mixes, skip on vs off --------------------
    const auto &mem2 = sim::workloadsOf(sim::WorkloadGroup::MEM2);
    const std::size_t mem2_count =
        cappedCount("RATSIM_SKIP_WORKLOADS", mem2.size());
    if (mem2_count < mem2.size()) {
        std::printf("\nnote: timing %zu of %zu MEM2 workloads "
                    "(RATSIM_SKIP_WORKLOADS)\n",
                    mem2_count, mem2.size());
    }

    const std::vector<core::PolicyKind> skip_policies = {
        core::PolicyKind::Icount, core::PolicyKind::Stall,
        core::PolicyKind::Dcra};

    const std::vector<std::string> skip_labels = {
        "tick MIPS", "skip MIPS", "speedup", "skip% warm", "skip% meas"};
    double best_speedup = 0.0;
    std::string best_cell;

    for (const core::PolicyKind policy : skip_policies) {
        std::map<std::string, std::vector<double>> rows;
        std::vector<std::string> order;
        double tick_sec = 0.0, skip_sec = 0.0;
        std::uint64_t committed = 0;

        for (std::size_t i = 0; i < mem2_count; ++i) {
            const sim::Workload &w = mem2[i];
            const ModeSample ticked = timeOne(base, w, policy, false);
            const ModeSample skipped = timeOne(base, w, policy, true);
            if (skipped.resultJson != ticked.resultJson) {
                fatal("cycle skipping diverged on '%s' under %s",
                      w.name.c_str(), core::policyName(policy));
            }
            const double speedup =
                ticked.mips > 0.0 ? skipped.mips / ticked.mips : 0.0;
            const auto skip_pct = [](std::uint64_t cycles, Cycle phase) {
                return phase > 0 ? 100.0 * static_cast<double>(cycles) /
                                       static_cast<double>(phase)
                                 : 0.0;
            };
            rows[w.name] = {
                ticked.mips, skipped.mips, speedup,
                skip_pct(skipped.warmupSkipped, base.warmupCycles),
                skip_pct(skipped.measureSkipped, base.measureCycles)};
            order.push_back(w.name);
            tick_sec += ticked.seconds;
            skip_sec += skipped.seconds;
            committed += skipped.committed;
            if (speedup > best_speedup) {
                best_speedup = speedup;
                best_cell = std::string(core::policyName(policy)) + " " +
                            w.name;
            }
        }

        const std::string title =
            std::string("MEM2 under ") + core::policyName(policy) +
            ": cycle skipping vs ticking";
        bench::printGroupTable(title.c_str(), skip_labels, rows, order);
        bench_report.addGroupTable(title.c_str(), skip_labels, rows,
                                   order);

        const double tick_mips =
            tick_sec > 0.0
                ? static_cast<double>(committed) / 1e6 / tick_sec
                : 0.0;
        const double skip_mips =
            skip_sec > 0.0
                ? static_cast<double>(committed) / 1e6 / skip_sec
                : 0.0;
        bench_report.addHeadline(
            std::string("simulated MIPS, MEM2 sweep total, ticked (") +
                core::policyName(policy) + ")",
            tick_mips);
        bench_report.addHeadline(
            std::string("simulated MIPS, MEM2 sweep total, skipping (") +
                core::policyName(policy) + ")",
            skip_mips);
        std::printf("MEM2 %s sweep: ticked %.3f MIPS -> skipping %.3f "
                    "MIPS (%.2fx)\n\n",
                    core::policyName(policy), tick_mips, skip_mips,
                    tick_mips > 0.0 ? skip_mips / tick_mips : 0.0);
    }

    // ---- sweep 3: event-tracer overhead, off vs on -----------------------
    //
    // "Off" is the shipping configuration: the instrumentation sites
    // are compiled in but gated on a cached zero mask, so this row
    // doubles as the zero-cost-when-off guard (it must track the
    // ev+skip grid numbers above within noise, target < 1%). "On"
    // streams every category into the ring buffers and exports to
    // /dev/null; target < 15% overhead.
    const std::size_t trace_count =
        cappedCount("RATSIM_TRACE_WORKLOADS", std::min<std::size_t>(
                                                  mix4_count, 2));
    const std::vector<std::string> trace_labels = {
        "off MIPS", "on MIPS", "overhead%"};
    std::map<std::string, std::vector<double>> trace_rows;
    std::vector<std::string> trace_order;
    double trace_off_sec = 0.0, trace_on_sec = 0.0;
    std::uint64_t trace_committed = 0;

    for (std::size_t i = 0; i < trace_count; ++i) {
        const sim::Workload &w = mix4[i];
        const ModeSample off =
            timeOne(base, w, core::PolicyKind::Rat, true);
        const ModeSample on =
            timeOne(base, w, core::PolicyKind::Rat, true, "/dev/null");
        // Observation only: a traced run must serialize the exact same
        // result as the untraced one.
        if (on.resultJson != off.resultJson)
            fatal("tracing perturbed the result on workload '%s'",
                  w.name.c_str());
        const double overhead =
            on.mips > 0.0 ? 100.0 * (off.mips / on.mips - 1.0) : 0.0;
        trace_rows[w.name] = {off.mips, on.mips, overhead};
        trace_order.push_back(w.name);
        trace_off_sec += off.seconds;
        trace_on_sec += on.seconds;
        trace_committed += off.committed;
    }
    bench::printGroupTable(
        "RaT on MIX4: event-tracer overhead (ev+skip, all categories, "
        "export to /dev/null)",
        trace_labels, trace_rows, trace_order);
    bench_report.addGroupTable(
        "RaT on MIX4: event-tracer overhead (ev+skip, all categories, "
        "export to /dev/null)",
        trace_labels, trace_rows, trace_order);
    const double trace_off_mips =
        trace_off_sec > 0.0
            ? static_cast<double>(trace_committed) / 1e6 / trace_off_sec
            : 0.0;
    const double trace_on_mips =
        trace_on_sec > 0.0
            ? static_cast<double>(trace_committed) / 1e6 / trace_on_sec
            : 0.0;
    bench_report.addHeadline("simulated MIPS, tracing off (ev+skip)",
                             trace_off_mips);
    bench_report.addHeadline("simulated MIPS, tracing on (ev+skip)",
                             trace_on_mips);
    bench_report.addHeadline(
        "tracing overhead % (target < 15)",
        trace_on_mips > 0.0
            ? 100.0 * (trace_off_mips / trace_on_mips - 1.0)
            : 0.0);
    std::printf("tracing overhead: off %.3f MIPS -> on %.3f MIPS "
                "(%.1f%%)\n\n",
                trace_off_mips, trace_on_mips,
                trace_on_mips > 0.0
                    ? 100.0 * (trace_off_mips / trace_on_mips - 1.0)
                    : 0.0);

    // ---- totals ----------------------------------------------------------
    const double total_mips_event =
        sum_event_sec > 0.0
            ? static_cast<double>(sum_committed) / 1e6 / sum_event_sec
            : 0.0;
    const double total_mips_skip =
        sum_skip_sec > 0.0
            ? static_cast<double>(sum_committed) / 1e6 / sum_skip_sec
            : 0.0;

    std::printf("MIX4 sweep totals (measured windows): event %.2fs, "
                "event+skip %.2fs, untimed prewarm+warmup %.2fs\n",
                sum_event_sec, sum_skip_sec, sum_prewarm_sec);
    std::printf("simulated MIPS on MIX4/RaT: event %.3f -> event+skip "
                "%.3f\n",
                total_mips_event, total_mips_skip);
    std::printf("best MEM-dominated skip speedup: %.2fx (%s)\n",
                best_speedup, best_cell.c_str());

    bench_report.addHeadline("simulated MIPS, MIX4/RaT event+tick",
                             total_mips_event);
    bench_report.addHeadline("simulated MIPS, MIX4/RaT event+skip",
                             total_mips_skip);
    bench_report.addHeadline("best MEM-dominated skip speedup",
                             best_speedup);
    bench_report.write();
    return 0;
}
