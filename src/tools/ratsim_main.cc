/**
 * @file
 * ratsim — command-line driver for the Runahead Threads SMT simulator.
 *
 * Subcommands:
 *   ratsim run    [options]   single workload or group, human output
 *   ratsim report [options]   same run, structured JSON/CSV output
 *   ratsim sweep  [options]   declarative campaign over a config grid
 *                             with an optional on-disk result cache
 *   ratsim farm   [options]   the same campaign grid, sharded across
 *                             worker processes with a shared cache;
 *                             crash-safe and resumable
 *   ratsim verify [options]   determinism audit: one config with cycle
 *                             skipping on and off + a prewarm-restore
 *                             leg, per ra-variant; digest streams
 *                             compared, divergences bisected
 *
 * `ratsim --farm-worker` is the internal worker-process entry point
 * the farm coordinator fork/execs; it speaks length-prefixed JSON on
 * stdin/stdout and is not meant for interactive use.
 *
 * Bare `ratsim [options]` is kept as an alias of `ratsim run` for
 * backward compatibility.
 *
 * Examples:
 *   ratsim run --workload art,mcf --policy RaT
 *   ratsim run --group MEM2 --policy RaT --fairness
 *   ratsim report --workload art,mcf --policy RaT --json run.json
 *   ratsim sweep --policies ICOUNT,RaT --groups MEM2 --regs 128,320 \
 *                --cache .ratsim-cache --json sweep.json
 *   ratsim --list-programs
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "check/verify.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/trace.hh"
#include "policy/factory.hh"
#include "report/serialize.hh"
#include "runahead/variant.hh"
#include "sim/campaign.hh"
#include "sim/farm.hh"
#include "sim/metrics.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"
#include "sim/workloads.hh"
#include "trace/profile.hh"

namespace {

using namespace rat;

void
usage()
{
    std::printf(
        "ratsim — Runahead Threads SMT simulator (HPCA 2008 reproduction)\n"
        "\n"
        "usage: ratsim [run|report|sweep|farm|verify] [options]\n"
        "\n"
        "run/report options:\n"
        "  --workload P1,P2[,P3,P4]  programs to co-run (default art,mcf)\n"
        "  --group NAME              run a whole Table 2 group instead\n"
        "                            (ILP2 MIX2 MEM2 ILP4 MIX4 MEM4)\n"
        "  --policy NAME             ICOUNT STALL FLUSH DCRA HillClimbing\n"
        "                            RaT RaT+DCRA MLP RR (default RaT)\n"
        "  --measure N               measured cycles (default 100000)\n"
        "  --warmup N                timed warm-up cycles (default 20000)\n"
        "  --prewarm N               functional warm-up insts (default 1M)\n"
        "  --seed N                  workload seed (default 1)\n"
        "  --regs N                  INT and FP renaming registers\n"
        "  --rob N                   shared reorder-buffer entries\n"
        "  --fairness                also compute Eq. 2 fairness\n"
        "  --ra-variant NAME         runahead variant: classic capped\n"
        "                            useless-filter (default classic)\n"
        "  --ra-cap N                capped variant: max episode cycles\n"
        "  --ra-filter-threshold N   useless-filter: useless episodes of\n"
        "                            a PC before it stops entering\n"
        "  --ra-filter-reprobe N     useless-filter: probe every Nth\n"
        "                            suppressed load (0 = never)\n"
        "  --no-fp-drop              execute FP work in runahead\n"
        "  --runahead-cache          enable the runahead cache\n"
        "  --ra-cache-lines N        runahead-cache lines per thread\n"
        "  --no-prefetch             Fig. 4 ablation: no runahead prefetch\n"
        "  --no-ra-fetch             Fig. 4 ablation: no fetch in runahead\n"
        "  --no-cycle-skip           tick every cycle (disable the\n"
        "                            bit-identical quiescence fast-forward)\n"
        "  --trace-out PATH          write a Chrome trace-event JSON of\n"
        "                            the measured window ('-' = stdout);\n"
        "                            load it in Perfetto / chrome://tracing\n"
        "  --trace-categories LIST   comma list of fetch,sched,mem,\n"
        "                            runahead,all (default all)\n"
        "  --sample-window N         record windowed telemetry every N\n"
        "                            cycles into the result (default off)\n"
        "  --digest-window N         record a deterministic state digest\n"
        "                            every N cycles into the result\n"
        "                            (default off; what verify compares)\n"
        "  --check-level LEVEL       runtime invariant audits: off\n"
        "                            sampled full (default off)\n"
        "  --check-interval N        cycles between sampled audits\n"
        "                            (default 64)\n"
        "  --sampled                 phase-sampled simulation: profile\n"
        "                            the instruction stream into phases,\n"
        "                            run one checkpointed sample per\n"
        "                            phase, extrapolate whole-run\n"
        "                            metrics (statistical; verify and\n"
        "                            the digest/trace flags refuse it)\n"
        "  --sample-phases N         phases / representative samples\n"
        "                            (default 4)\n"
        "  --phase-window N          instructions per profile window\n"
        "                            (default 2048)\n"
        "  --phase-span N            profiled windows past prewarm\n"
        "                            (default 64)\n"
        "  --sample-warmup N         detailed warm-up cycles per sample\n"
        "                            (default 1000)\n"
        "  --sample-measure N        measured cycles per sample\n"
        "                            (default 4000)\n"
        "  --json PATH               (report) write JSON ('-' = stdout)\n"
        "  --csv PATH                (report) write CSV ('-' = stdout)\n"
        "\n"
        "verify options (all run options, plus):\n"
        "  --mutate-at N             seed a single-bit state corruption\n"
        "                            N cycles into the measured window;\n"
        "                            verify must detect and bisect it\n"
        "                            (exit 1 on detection, 2 if missed)\n"
        "\n"
        "sweep options (comma-separated axes):\n"
        "  --policies A,B,...        techniques (default ICOUNT,RaT)\n"
        "  --groups G1,G2,...        Table 2 groups to sweep\n"
        "  --workloads W1;W2;...     explicit workloads, ';'-separated\n"
        "                            (default art,mcf when no --groups)\n"
        "  --ra-variant V1,V2,...    runahead-variant axis\n"
        "  --regs N1,N2,...          renaming-register axis\n"
        "  --rob N1,N2,...           ROB-size axis\n"
        "  --measure N1,N2,...       measured-window axis\n"
        "  --seeds N1,N2,...         seed axis\n"
        "  --warmup/--prewarm N      scalar warm-up settings\n"
        "  --cache DIR               on-disk result cache directory\n"
        "  --jobs N                  worker threads (default: hardware)\n"
        "  --json PATH / --csv PATH  structured output ('-' = stdout)\n"
        "  --no-cycle-skip           tick every cycle in all cells\n"
        "  --sample-window N         windowed telemetry in every cell\n"
        "  --sampled [...]           phase-sampled cells (all run-side\n"
        "                            sampling flags apply; each sample\n"
        "                            is its own schedulable cell and\n"
        "                            reports collapse to merged rows)\n"
        "\n"
        "farm options (all sweep options but --no-cycle-skip, plus):\n"
        "  --workers N               worker processes (default: hardware)\n"
        "  --shards N                job shards (default: 4x workers);\n"
        "                            idle workers steal straggler shards\n"
        "                            (use --cache to make the campaign\n"
        "                            resumable after a crash or kill -9)\n"
        "  --progress                live progress line on stderr (cells\n"
        "                            done/total, steals, deaths, ETA)\n"
        "  --job-timeout N           SIGKILL + requeue a worker whose\n"
        "                            cell produced no frame for N s\n"
        "                            (default 0 = watchdog off)\n"
        "  --max-retries N           requeue budget per cell; one more\n"
        "                            worker death quarantines the cell\n"
        "                            (default 2)\n"
        "  --no-respawn              do not refill dead worker slots\n"
        "                            (respawn with backoff is on by\n"
        "                            default)\n"
        "\n"
        "discovery:\n"
        "  --list-programs           print modelled SPEC2000 programs\n"
        "  --list-groups             print Table 2 workloads\n"
        "  --help                    this text\n");
}

/**
 * Handle a discovery/help flag in an option position (prints and
 * exits). Never called for option *values*: those are consumed by
 * next() before the parse loop sees them, so
 * `--workload --list-programs` still fails as a bad workload.
 */
void
handleDiscovery(const std::string &arg)
{
    if (arg == "--help" || arg == "-h") {
        usage();
        std::exit(0);
    }
    if (arg == "--list-programs") {
        for (const auto &name : trace::spec2000Names())
            std::printf("%s\n", name.c_str());
        std::exit(0);
    }
    if (arg == "--list-groups") {
        for (const sim::WorkloadGroup g : sim::allGroups()) {
            std::printf("%s:\n", sim::groupName(g));
            for (const sim::Workload &w : sim::workloadsOf(g))
                std::printf("  %s\n", w.name.c_str());
        }
        std::exit(0);
    }
}

core::PolicyKind
parsePolicy(const std::string &name)
{
    if (const auto kind = policy::parsePolicyKind(name))
        return *kind;
    fatal("unknown policy '%s' (try --help)", name.c_str());
}

runahead::RaVariant
parseVariant(const std::string &name)
{
    if (const auto variant = runahead::parseRaVariant(name))
        return *variant;
    fatal("unknown runahead variant '%s' (classic, capped, "
          "useless-filter)",
          name.c_str());
}

std::vector<std::string>
splitPrograms(const std::string &list)
{
    const std::vector<std::string> programs = splitList(list, ',');
    for (const std::string &name : programs) {
        if (!trace::isSpec2000(name))
            fatal("unknown program '%s' (try --list-programs)",
                  name.c_str());
    }
    if (programs.empty() || programs.size() > 4)
        fatal("workload needs 1..4 programs");
    return programs;
}

/** Split a ';'-separated list of comma-joined workloads. */
std::vector<sim::Workload>
splitWorkloads(const std::string &list)
{
    std::vector<sim::Workload> workloads;
    for (const std::string &item : splitList(list, ';'))
        workloads.push_back(
            sim::Workload::fromPrograms(splitPrograms(item)));
    return workloads;
}

/** Write @p text to @p path, with "-" meaning stdout. */
void
writeOutput(const std::string &path, const std::string &text,
            const char *what)
{
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return;
    }
    std::ofstream out(path);
    if (!out)
        fatal("cannot write %s file '%s'", what, path.c_str());
    out << text;
    std::printf("wrote %s %s\n", what, path.c_str());
}

/** Print one run; @p baselines (Eq. 2's reference IPCs) adds fairness. */
void
printRun(const sim::SimResult &r, const sim::BaselineIpcMap *baselines)
{
    std::printf("%-10s %8s %12s %9s %9s %10s %10s\n", "thread", "IPC",
                "committed", "L2 MPKI", "mispred%", "RA epis.",
                "RA cycles");
    for (const sim::ThreadResult &t : r.threads) {
        const double mp =
            t.core.branches
                ? 100.0 * static_cast<double>(t.core.branchMispredicts) /
                      static_cast<double>(t.core.branches)
                : 0.0;
        std::printf("%-10s %8.3f %12llu %9.2f %9.1f %10llu %10llu\n",
                    t.program.c_str(), t.ipc,
                    static_cast<unsigned long long>(t.core.committedInsts),
                    t.l2Mpki, mp,
                    static_cast<unsigned long long>(
                        t.core.runaheadEntries),
                    static_cast<unsigned long long>(
                        t.core.runaheadCycles));
    }
    std::printf("\nthroughput (Eq.1): %.3f   total IPC: %.3f   ED^2: %.3g\n",
                r.throughputEq1(), r.totalIpc(), sim::ed2(r));
    if (baselines)
        std::printf("fairness (Eq.2):   %.3f\n",
                    sim::fairness(r, *baselines));
}

/** Options shared by the run and report subcommands. */
struct RunOptions {
    std::string workloadList = "art,mcf";
    std::string groupName;
    std::string policyName = "RaT";
    sim::SimConfig cfg;
    bool withFairness = false;
    /** A --sample-* / --phase-* tuning flag was given (they require
     * --sampled; validateSampled diagnoses the orphan case). */
    bool sampledParams = false;
    std::string jsonPath; ///< report only
    std::string csvPath;  ///< report only
};

/**
 * The one home for cross-flag coherence of sampled simulation: every
 * subcommand (run, report, verify, sweep, farm) funnels its parsed
 * config through here, so an incoherent combination fails the same
 * way everywhere instead of half-working in one command and crashing
 * in another.
 */
void
validateSampled(const sim::SimConfig &cfg, bool sampled_params_given,
                bool group_or_fairness, bool verify_mode)
{
    if (!cfg.sampled) {
        if (sampled_params_given)
            fatal("--sample-phases/--phase-window/--phase-span/"
                  "--sample-warmup/--sample-measure tune sampled "
                  "simulation and need --sampled");
        return;
    }
    if (verify_mode)
        fatal("verify audits exact, replayable simulation; --sampled "
              "is a statistical estimate and cannot be "
              "digest-verified (drop --sampled)");
    if (group_or_fairness)
        fatal("--sampled runs a single workload; --group/--fairness "
              "need whole-run baselines (drop them or drop "
              "--sampled)");
    if (cfg.digestWindow)
        fatal("--digest-window streams exact-run state digests; they "
              "are meaningless across sampled fast-forwards (drop it "
              "or drop --sampled)");
    if (cfg.sampleWindow)
        fatal("--sample-window telemetry covers one contiguous "
              "measured window; sampled runs have none (drop it or "
              "drop --sampled)");
    if (!cfg.traceOut.empty())
        fatal("--trace-out traces one contiguous measured window; "
              "sampled runs have none (drop it or drop --sampled)");
    if (!cfg.samplePhases)
        fatal("--sample-phases needs at least one phase");
    if (!cfg.phaseWindow)
        fatal("--phase-window needs a non-zero instruction window");
    if (!cfg.phaseSpanWindows)
        fatal("--phase-span needs at least one profiled window");
    if (!cfg.sampleMeasureCycles)
        fatal("--sample-measure needs a non-zero measured window");
}

/**
 * Parse one run/report/common option at @p args[i]; returns false when
 * the option is unknown. @p i advances past consumed values.
 */
bool
parseRunOption(const std::vector<std::string> &args, std::size_t &i,
               RunOptions &opt, bool structured)
{
    const std::string &arg = args[i];
    auto next = [&]() -> const char * {
        if (i + 1 >= args.size())
            fatal("option %s needs a value", arg.c_str());
        return args[++i].c_str();
    };
    handleDiscovery(arg); // exits on --help / --list-*
    if (arg == "--workload") {
        opt.workloadList = next();
    } else if (arg == "--group") {
        opt.groupName = next();
    } else if (arg == "--policy") {
        opt.policyName = next();
    } else if (arg == "--measure") {
        opt.cfg.measureCycles = parseU64(next(), "--measure");
    } else if (arg == "--warmup") {
        opt.cfg.warmupCycles = parseU64(next(), "--warmup");
    } else if (arg == "--prewarm") {
        opt.cfg.prewarmInsts = parseU64(next(), "--prewarm");
    } else if (arg == "--seed") {
        opt.cfg.seed = parseU64(next(), "--seed");
    } else if (arg == "--regs") {
        const unsigned regs = parseUnsigned(next(), "--regs");
        opt.cfg.core.intRegs = regs;
        opt.cfg.core.fpRegs = regs;
    } else if (arg == "--rob") {
        opt.cfg.core.robEntries = parseUnsigned(next(), "--rob");
    } else if (arg == "--fairness") {
        opt.withFairness = true;
    } else if (arg == "--ra-variant") {
        opt.cfg.core.rat.variant = parseVariant(next());
    } else if (arg == "--ra-cap") {
        opt.cfg.core.rat.cappedMaxCycles =
            parseUnsigned(next(), "--ra-cap");
    } else if (arg == "--ra-filter-threshold") {
        opt.cfg.core.rat.uselessFilterThreshold =
            parseUnsigned(next(), "--ra-filter-threshold");
    } else if (arg == "--ra-filter-reprobe") {
        opt.cfg.core.rat.uselessFilterReprobe =
            parseUnsigned(next(), "--ra-filter-reprobe");
    } else if (arg == "--ra-cache-lines") {
        opt.cfg.core.rat.runaheadCacheLines =
            parseUnsigned(next(), "--ra-cache-lines");
    } else if (arg == "--no-fp-drop") {
        opt.cfg.core.rat.dropFpInRunahead = false;
    } else if (arg == "--runahead-cache") {
        opt.cfg.core.rat.useRunaheadCache = true;
    } else if (arg == "--no-prefetch") {
        opt.cfg.core.rat.disablePrefetch = true;
    } else if (arg == "--no-ra-fetch") {
        opt.cfg.core.rat.noFetchInRunahead = true;
    } else if (arg == "--no-cycle-skip") {
        opt.cfg.core.cycleSkipping = false;
    } else if (arg == "--trace-out") {
        opt.cfg.traceOut = next();
    } else if (arg == "--trace-categories") {
        const char *list = next();
        if (!obs::parseTraceCategories(list, opt.cfg.traceCategories))
            fatal("--trace-categories: unknown category in '%s' "
                  "(expected %s)",
                  list, obs::traceCategoryNames());
    } else if (arg == "--sample-window") {
        opt.cfg.sampleWindow = parseU64(next(), "--sample-window");
    } else if (arg == "--digest-window") {
        opt.cfg.digestWindow = parseU64(next(), "--digest-window");
    } else if (arg == "--check-level") {
        const std::string level = next();
        if (level == "off")
            opt.cfg.core.checkLevel = core::CheckLevel::Off;
        else if (level == "sampled")
            opt.cfg.core.checkLevel = core::CheckLevel::Sampled;
        else if (level == "full")
            opt.cfg.core.checkLevel = core::CheckLevel::Full;
        else
            fatal("--check-level: unknown level '%s' (off, sampled, "
                  "full)",
                  level.c_str());
    } else if (arg == "--check-interval") {
        opt.cfg.core.checkInterval =
            parseUnsigned(next(), "--check-interval");
    } else if (arg == "--sampled") {
        opt.cfg.sampled = true;
    } else if (arg == "--sample-phases") {
        opt.cfg.samplePhases = parseUnsigned(next(), "--sample-phases");
        opt.sampledParams = true;
    } else if (arg == "--phase-window") {
        opt.cfg.phaseWindow = parseU64(next(), "--phase-window");
        opt.sampledParams = true;
    } else if (arg == "--phase-span") {
        opt.cfg.phaseSpanWindows =
            parseUnsigned(next(), "--phase-span");
        opt.sampledParams = true;
    } else if (arg == "--sample-warmup") {
        opt.cfg.sampleWarmupCycles =
            parseU64(next(), "--sample-warmup");
        opt.sampledParams = true;
    } else if (arg == "--sample-measure") {
        opt.cfg.sampleMeasureCycles =
            parseU64(next(), "--sample-measure");
        opt.sampledParams = true;
    } else if (structured && arg == "--json") {
        opt.jsonPath = next();
    } else if (structured && arg == "--csv") {
        opt.csvPath = next();
    } else {
        return false;
    }
    return true;
}

/** `ratsim run` / legacy bare invocation / `ratsim report`. */
int
runCommand(const std::vector<std::string> &args, bool structured)
{
    RunOptions opt;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (!parseRunOption(args, i, opt, structured)) {
            usage();
            fatal("unknown option '%s'", args[i].c_str());
        }
    }
    opt.cfg.core.policy = parsePolicy(opt.policyName);
    validateSampled(opt.cfg, opt.sampledParams,
                    !opt.groupName.empty() || opt.withFairness,
                    /*verify_mode=*/false);
    if (!opt.groupName.empty() && !opt.cfg.traceOut.empty())
        fatal("--trace-out traces one run; --group runs every workload "
              "of the group into the same file (drop --trace-out or "
              "--group)");
    // Structured output defaults to JSON on stdout.
    if (structured && opt.jsonPath.empty() && opt.csvPath.empty())
        opt.jsonPath = "-";

    // The run as a campaign: a --group runs through it, and the Eq. 2
    // baselines are its baselineSpec.
    const sim::TechniqueSpec tech{opt.policyName, opt.cfg.core.policy,
                                  opt.cfg.core.rat};
    sim::CampaignSpec spec;
    spec.base = opt.cfg;
    spec.techniques = {tech};

    if (!opt.groupName.empty()) {
        const auto group = sim::parseGroup(opt.groupName);
        if (!group)
            fatal("unknown group '%s'", opt.groupName.c_str());
        spec.groups = {*group};
        const sim::CampaignOutcome baselines =
            sim::runCampaign(sim::baselineSpec(spec));
        const sim::GroupMetrics gm =
            sim::groupMetrics(spec, sim::runCampaign(spec), &baselines)[0][0];
        if (structured) {
            if (!opt.jsonPath.empty()) {
                report::Json j = report::Json::object();
                j["schema"] = report::Json("ratsim-group-v1");
                // Effective config: every run in the group uses the
                // group's thread count, not the base default.
                j["config"] = report::toJson(sim::configFor(
                    opt.cfg, tech, sim::groupThreads(*group)));
                j["groupMetrics"] = report::toJson(gm);
                writeOutput(opt.jsonPath, j.dump(2), "JSON");
            }
            if (!opt.csvPath.empty())
                writeOutput(opt.csvPath,
                            report::groupMetricsCsv(gm).dump(), "CSV");
            return 0;
        }
        std::printf("%s under %s:\n", opt.groupName.c_str(),
                    opt.policyName.c_str());
        const auto &workloads = sim::workloadsOf(*group);
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            std::printf("  %-28s throughput %.3f\n",
                        workloads[i].name.c_str(),
                        sim::throughput(gm.results[i]));
        }
        std::printf("group mean: throughput %.3f  fairness %.3f  "
                    "ED^2 %.3g\n",
                    gm.meanThroughput, gm.meanFairness, gm.meanEd2);
        return 0;
    }

    const sim::Workload w =
        sim::Workload::fromPrograms(splitPrograms(opt.workloadList));
    const sim::SimConfig cfg = sim::configFor(
        opt.cfg, tech, static_cast<unsigned>(w.programs.size()));
    // Sampled runs dispatch through the same cell runner the
    // campaign/farm use: profile, checkpoint, per-phase samples,
    // merged extrapolation. Exact runs keep the existing path
    // bit-for-bit.
    const sim::SimResult r = opt.cfg.sampled
                                 ? sim::simulateCell(cfg, w.programs)
                                 : sim::Simulator(cfg, w.programs).run();
    std::optional<sim::BaselineIpcMap> baselines;
    if (opt.withFairness) {
        spec.workloads = {w};
        baselines = sim::baselineIpcs(
            sim::runCampaign(sim::baselineSpec(spec)));
    }

    if (structured) {
        if (!opt.jsonPath.empty()) {
            report::Json j = report::Json::object();
            j["schema"] = report::Json("ratsim-run-v1");
            j["workload"] = report::Json(w.name);
            j["technique"] = report::Json(opt.policyName);
            j["config"] = report::toJson(cfg);
            j["metrics"] = report::resultMetricsJson(r);
            // Engine stats ride only on this always-fresh path; they
            // are not part of toJson(SimResult) (see serialize.hh).
            j["engine"] = report::engineStatsJson(r.engine);
            if (baselines)
                j["fairness"] = report::Json(sim::fairness(r, *baselines));
            j["result"] = report::toJson(r);
            writeOutput(opt.jsonPath, j.dump(2), "JSON");
        }
        if (!opt.csvPath.empty())
            writeOutput(opt.csvPath, report::threadResultsCsv(r).dump(),
                        "CSV");
        return 0;
    }

    std::printf("workload %s under %s (%llu measured cycles%s)\n\n",
                w.name.c_str(), opt.policyName.c_str(),
                static_cast<unsigned long long>(opt.cfg.measureCycles),
                opt.cfg.sampled ? ", sampled" : "");
    printRun(r, baselines ? &*baselines : nullptr);
    if (r.sampled.enabled && r.sampled.merged)
        std::printf("sampled: %u phases over %llu profiled windows "
                    "(est. ipc error %.2f%%, hmean error %.2f%%)\n",
                    r.sampled.phases,
                    static_cast<unsigned long long>(
                        r.sampled.totalWindows),
                    100.0 * r.sampled.ipcError,
                    100.0 * r.sampled.hmeanError);
    return 0;
}

/**
 * `ratsim verify`: run one configuration across the host-side mode
 * grid (cycle-skip x ra-variant) plus a prewarm-restore leg
 * and compare state-digest streams; bisect any divergence to the
 * first differing cycle. Exit 0 = consistent; 1 = divergence found
 * (including a deliberately seeded one); 2 = a seeded mutation went
 * undetected (the digest itself is broken).
 */
int
verifyCommand(const std::vector<std::string> &args)
{
    RunOptions opt;
    check::VerifyOptions vopt;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= args.size())
                fatal("option %s needs a value", arg.c_str());
            return args[++i].c_str();
        };
        if (arg == "--mutate-at") {
            vopt.mutateAt = parseU64(next(), "--mutate-at");
        } else if (!parseRunOption(args, i, opt, false)) {
            usage();
            fatal("unknown option '%s'", arg.c_str());
        }
    }
    if (!opt.groupName.empty())
        fatal("verify audits one workload (--workload), not a group");
    validateSampled(opt.cfg, opt.sampledParams,
                    /*group_or_fairness=*/false, /*verify_mode=*/true);
    opt.cfg.core.policy = parsePolicy(opt.policyName);
    vopt.base = opt.cfg;
    vopt.programs = splitPrograms(opt.workloadList);
    if (opt.cfg.digestWindow)
        vopt.digestWindow = opt.cfg.digestWindow;
    vopt.base.digestWindow = 0; // per-leg windows are set by the driver

    std::printf("verify: workload %s under %s (%llu measured cycles, "
                "digest window %llu%s)\n",
                opt.workloadList.c_str(), opt.policyName.c_str(),
                static_cast<unsigned long long>(
                    vopt.base.measureCycles),
                static_cast<unsigned long long>(vopt.digestWindow),
                vopt.mutateAt ? ", seeded mutation" : "");
    const check::VerifyOutcome outcome = check::runVerify(vopt);

    int exit_code = 0;
    if (!outcome.gridConsistent) {
        for (const check::Divergence &d : outcome.divergences)
            std::printf("%s", check::formatDivergence(d).c_str());
        std::printf("verify: FAILED — %zu of %u legs diverged from "
                    "the reference\n",
                    outcome.divergences.size(), outcome.legsCompared);
        exit_code = 1;
    } else {
        std::printf("verify: mode grid consistent (%u legs, identical "
                    "digest streams)\n",
                    outcome.legsCompared);
    }
    if (vopt.mutateAt) {
        if (outcome.mutationDetected) {
            std::printf("%s",
                        check::formatDivergence(outcome.mutation)
                            .c_str());
            std::printf("verify: seeded mutation detected and "
                        "bisected to cycle %llu\n",
                        static_cast<unsigned long long>(
                            outcome.mutation.cycle));
            exit_code = exit_code ? exit_code : 1;
        } else {
            std::printf("verify: FAILED — seeded mutation at cycle "
                        "%llu was NOT detected\n",
                        static_cast<unsigned long long>(
                            vopt.mutateAt));
            exit_code = 2;
        }
    }
    return exit_code;
}

/** How many exact cells of a campaign walked or restored their prewarm. */
void
printPrewarmLine(const sim::CampaignOutcome &outcome)
{
    std::printf("prewarm: %llu walks, %llu restores\n",
                static_cast<unsigned long long>(outcome.prewarmWalks),
                static_cast<unsigned long long>(outcome.prewarmRestores));
}

/**
 * `ratsim sweep` (in-process worker threads) and `ratsim farm`
 * (sharded worker processes): the same declarative campaign grid; a
 * completed farm produces byte-identical JSON/CSV to the sweep.
 */
int
sweepCommand(const std::vector<std::string> &args, bool farm_mode)
{
    sim::CampaignSpec spec;
    sim::FarmOptions farm_options;
    std::string policies = "ICOUNT,RaT";
    std::string groups;
    std::string workloads;
    bool groups_given = false;
    bool workloads_given = false;
    std::string json_path, csv_path;
    core::RatConfig rat_flags;
    bool sampled_params = false;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= args.size())
                fatal("option %s needs a value", arg.c_str());
            return args[++i].c_str();
        };
        auto unsignedAxis = [](const char *text, const char *what) {
            std::vector<unsigned> values;
            for (const std::string &item : splitList(text, ','))
                values.push_back(parseUnsigned(item.c_str(), what));
            if (values.empty())
                fatal("%s: expected a comma-separated list of unsigned "
                      "integers, got '%s'",
                      what, text);
            return values;
        };
        handleDiscovery(arg); // exits on --help / --list-*
        if (arg == "--policies") {
            policies = next();
        } else if (arg == "--groups") {
            groups = next();
            groups_given = true;
        } else if (arg == "--workloads") {
            workloads = next();
            workloads_given = true;
        } else if (arg == "--regs") {
            spec.regsAxis = unsignedAxis(next(), "--regs");
        } else if (arg == "--rob") {
            spec.robAxis = unsignedAxis(next(), "--rob");
        } else if (arg == "--measure") {
            spec.measureAxis = parseU64List(next(), "--measure");
        } else if (arg == "--seeds") {
            spec.seedAxis = parseU64List(next(), "--seeds");
        } else if (arg == "--warmup") {
            spec.base.warmupCycles = parseU64(next(), "--warmup");
        } else if (arg == "--prewarm") {
            spec.base.prewarmInsts = parseU64(next(), "--prewarm");
        } else if (arg == "--ra-variant") {
            for (const std::string &name : splitList(next(), ','))
                spec.raVariantAxis.push_back(parseVariant(name));
            if (spec.raVariantAxis.empty())
                fatal("--ra-variant: expected a comma-separated list of "
                      "variants");
        } else if (arg == "--ra-cap") {
            rat_flags.cappedMaxCycles = parseUnsigned(next(), "--ra-cap");
        } else if (arg == "--ra-filter-threshold") {
            rat_flags.uselessFilterThreshold =
                parseUnsigned(next(), "--ra-filter-threshold");
        } else if (arg == "--ra-filter-reprobe") {
            rat_flags.uselessFilterReprobe =
                parseUnsigned(next(), "--ra-filter-reprobe");
        } else if (arg == "--ra-cache-lines") {
            rat_flags.runaheadCacheLines =
                parseUnsigned(next(), "--ra-cache-lines");
        } else if (arg == "--cache") {
            spec.cacheDir = next();
        } else if (arg == "--jobs") {
            spec.parallelism = parseUnsigned(next(), "--jobs");
        } else if (farm_mode && arg == "--workers") {
            farm_options.workers = parseUnsigned(next(), "--workers");
        } else if (farm_mode && arg == "--shards") {
            farm_options.shards = parseUnsigned(next(), "--shards");
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--csv") {
            csv_path = next();
        } else if (arg == "--no-fp-drop") {
            rat_flags.dropFpInRunahead = false;
        } else if (arg == "--runahead-cache") {
            rat_flags.useRunaheadCache = true;
        } else if (arg == "--no-prefetch") {
            rat_flags.disablePrefetch = true;
        } else if (arg == "--no-ra-fetch") {
            rat_flags.noFetchInRunahead = true;
        } else if (!farm_mode && arg == "--no-cycle-skip") {
            // Host-only: farm workers would never see it (runFarm).
            spec.base.core.cycleSkipping = false;
        } else if (arg == "--sample-window") {
            spec.base.sampleWindow =
                parseU64(next(), "--sample-window");
        } else if (arg == "--sampled") {
            spec.base.sampled = true;
        } else if (arg == "--sample-phases") {
            spec.base.samplePhases =
                parseUnsigned(next(), "--sample-phases");
            sampled_params = true;
        } else if (arg == "--phase-window") {
            spec.base.phaseWindow = parseU64(next(), "--phase-window");
            sampled_params = true;
        } else if (arg == "--phase-span") {
            spec.base.phaseSpanWindows =
                parseUnsigned(next(), "--phase-span");
            sampled_params = true;
        } else if (arg == "--sample-warmup") {
            spec.base.sampleWarmupCycles =
                parseU64(next(), "--sample-warmup");
            sampled_params = true;
        } else if (arg == "--sample-measure") {
            spec.base.sampleMeasureCycles =
                parseU64(next(), "--sample-measure");
            sampled_params = true;
        } else if (farm_mode && arg == "--progress") {
            farm_options.progress = true;
        } else if (farm_mode && arg == "--job-timeout") {
            farm_options.jobTimeoutSec =
                parseUnsigned(next(), "--job-timeout");
        } else if (farm_mode && arg == "--max-retries") {
            farm_options.maxRetries =
                parseUnsigned(next(), "--max-retries");
        } else if (farm_mode && arg == "--no-respawn") {
            farm_options.respawn = false;
        } else {
            usage();
            fatal("unknown option '%s'", arg.c_str());
        }
    }

    validateSampled(spec.base, sampled_params,
                    /*group_or_fairness=*/false, /*verify_mode=*/false);

    spec.base.core.rat = rat_flags;
    for (const std::string &name : splitList(policies, ','))
        spec.techniques.push_back({name, parsePolicy(name), rat_flags});
    if (spec.techniques.empty())
        fatal("--policies needs at least one technique");

    for (const std::string &name : splitList(groups, ',')) {
        const auto group = sim::parseGroup(name);
        if (!group)
            fatal("unknown group '%s'", name.c_str());
        spec.groups.push_back(*group);
    }
    if (groups_given && spec.groups.empty())
        fatal("--groups: expected at least one group name, got '%s'",
              groups.c_str());
    if (workloads_given) {
        spec.workloads = splitWorkloads(workloads);
        if (spec.workloads.empty())
            fatal("--workloads: expected at least one workload, "
                  "got '%s'",
                  workloads.c_str());
    }
    // No explicit grid: default to the paper's headline pair.
    if (spec.groups.empty() && spec.workloads.empty())
        spec.workloads = splitWorkloads("art,mcf");

    sim::CampaignOutcome outcome;
    if (farm_mode) {
        const sim::FarmOutcome farm = sim::runFarm(spec, farm_options);
        outcome = std::move(farm.campaign);
        std::printf("farm: %zu cells (%llu simulated, %llu from cache, "
                    "%llu failed stores)\n",
                    outcome.cells.size(),
                    static_cast<unsigned long long>(outcome.simulated),
                    static_cast<unsigned long long>(outcome.cacheHits),
                    static_cast<unsigned long long>(
                        outcome.failedStores));
        std::printf("farm: %u workers, %u shards, %llu worker deaths, "
                    "%llu requeued, %llu stolen\n",
                    farm.workersSpawned, farm.shardCount,
                    static_cast<unsigned long long>(farm.workerDeaths),
                    static_cast<unsigned long long>(farm.jobsRequeued),
                    static_cast<unsigned long long>(farm.jobsStolen));
        if (farm.workersRespawned || farm.workersTimedOut ||
            !farm.quarantinedCells.empty() ||
            outcome.cacheQuarantined || farm.inProcessFallback)
            std::printf("farm: %llu respawned, %llu timed out, "
                        "%zu quarantined cells, %llu quarantined "
                        "cache files%s\n",
                        static_cast<unsigned long long>(
                            farm.workersRespawned),
                        static_cast<unsigned long long>(
                            farm.workersTimedOut),
                        farm.quarantinedCells.size(),
                        static_cast<unsigned long long>(
                            outcome.cacheQuarantined),
                        farm.inProcessFallback
                            ? ", in-process fallback"
                            : "");
        printPrewarmLine(outcome);
        for (const std::string &key : farm.quarantinedCells)
            warn("farm: quarantined cell %s", key.c_str());
        if (!farm.completed) {
            warn("farm did not complete: %s", farm.error.c_str());
            // Completed cells are durable in the cache; a re-run of
            // the same command resumes from them. No report files:
            // partial grids must never masquerade as finished ones.
            return 1;
        }
    } else {
        outcome = sim::runCampaign(spec);
        std::printf("sweep: %zu cells (%llu simulated, %llu from "
                    "cache, %llu failed stores)\n",
                    outcome.cells.size(),
                    static_cast<unsigned long long>(outcome.simulated),
                    static_cast<unsigned long long>(outcome.cacheHits),
                    static_cast<unsigned long long>(
                        outcome.failedStores));
        printPrewarmLine(outcome);
    }
    // Sampled campaigns schedule one cell per representative sample;
    // reporting collapses them back into one extrapolated row per
    // workload coordinate. Exact campaigns pass through unchanged.
    const sim::CampaignOutcome report_outcome =
        sim::mergeSampledOutcome(outcome);
    std::printf("%-14s %-6s %-28s %-14s %5s %5s %10s %8s\n",
                "technique", "group", "workload", "ra-variant", "regs",
                "rob", "seed", "thrpt");
    for (const sim::CampaignCell &cell : report_outcome.cells) {
        std::printf("%-14s %-6s %-28s %-14s %5u %5u %10llu %8.3f\n",
                    cell.technique.c_str(), cell.group.c_str(),
                    cell.workload.c_str(), cell.raVariant.c_str(),
                    cell.regs, cell.rob,
                    static_cast<unsigned long long>(cell.seed),
                    sim::throughput(cell.result));
    }

    if (!json_path.empty())
        writeOutput(json_path,
                    sim::campaignJson(report_outcome, spec).dump(2),
                    "JSON");
    if (!csv_path.empty())
        writeOutput(csv_path, sim::campaignCsv(report_outcome).dump(),
                    "CSV");
    return 0;
}

/**
 * `ratsim --farm-worker [--cache DIR] [--worker-id N]
 * [--test-kill-after N]`: the exec target of the farm coordinator.
 */
int
farmWorkerCommand(const std::vector<std::string> &args)
{
    std::string cache_dir;
    std::uint64_t kill_after = 0;
    unsigned worker_id = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= args.size())
                fatal("option %s needs a value", arg.c_str());
            return args[++i].c_str();
        };
        if (arg == "--cache")
            cache_dir = next();
        else if (arg == "--worker-id")
            worker_id = parseUnsigned(next(), "--worker-id");
        else if (arg == "--test-kill-after")
            kill_after = parseU64(next(), "--test-kill-after");
        else
            fatal("farm worker: unknown option '%s'", arg.c_str());
    }
    return sim::farmWorkerMain(cache_dir, worker_id, kill_after);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);

    if (!args.empty() && args[0] == "run")
        return runCommand({args.begin() + 1, args.end()}, false);
    if (!args.empty() && args[0] == "report")
        return runCommand({args.begin() + 1, args.end()}, true);
    if (!args.empty() && args[0] == "sweep")
        return sweepCommand({args.begin() + 1, args.end()}, false);
    if (!args.empty() && args[0] == "farm")
        return sweepCommand({args.begin() + 1, args.end()}, true);
    if (!args.empty() && args[0] == "verify")
        return verifyCommand({args.begin() + 1, args.end()});
    if (!args.empty() && args[0] == "--farm-worker")
        return farmWorkerCommand({args.begin() + 1, args.end()});
    if (!args.empty() && !args[0].empty() && args[0][0] != '-') {
        usage();
        fatal("unknown subcommand '%s'", args[0].c_str());
    }
    // Legacy: bare options behave like `ratsim run`.
    return runCommand(args, false);
}
