/**
 * @file
 * ratsim — command-line driver for the Runahead Threads SMT simulator.
 *
 * Every subcommand parses its options from one table, kFlags: one
 * entry per flag, naming the subcommands that take it. The same table
 * prints `ratsim --help` and `ratsim <subcommand> --help`. Rules that
 * span flags run after parsing, in the subcommand.
 *
 * `ratsim --farm-worker` is the internal worker-process entry point
 * the farm coordinator fork/execs; it speaks length-prefixed JSON on
 * stdin/stdout and is not meant for interactive use.
 *
 * Bare `ratsim [options]` is kept as an alias of `ratsim run` for
 * backward compatibility. README.md has examples of each subcommand.
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
#include "trace/phase.hh"
#include "trace/profile.hh"

namespace {

using namespace rat;

/** The subcommands, as bits of Flag::subs. */
enum : unsigned {
    kRun = 1u << 0,
    kReport = 1u << 1,
    kVerify = 1u << 2,
    kSweep = 1u << 3,
    kFarm = 1u << 4,
    kWorker = 1u << 5, ///< `--farm-worker`; never in --help
    kRunLike = kRun | kReport,
    kOneRun = kRunLike | kVerify,
    kGrid = kSweep | kFarm,
    kEvery = kOneRun | kGrid,
};

struct Sub {
    const char *name;
    unsigned bit;
    const char *summary; ///< null: not listed by --help
};

const Sub kSubs[] = {
    {"run", kRun, "one workload or Table 2 group, human output"},
    {"report", kReport, "the same run, structured JSON/CSV output"},
    {"verify", kVerify, "determinism audit of one workload's mode grid"},
    {"sweep", kSweep, "campaign over a config grid, optional cache"},
    {"farm", kFarm, "the sweep grid on crash-safe worker processes"},
    {"--farm-worker", kWorker, nullptr},
};

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

/**
 * What a command line sets. The flag setters write the structs the
 * subcommands run (`spec.base` is every subcommand's model config);
 * the other members are read once parsing is done.
 */
struct Cli {
    const Sub *sub = &kSubs[0];
    bool bare = true; ///< no subcommand named: `ratsim run`

    /** The flag being set, and its value (null for a switch). */
    const char *flag = nullptr;
    const char *value = nullptr;
    std::uint64_t u64() const { return parseU64(value, flag); }
    unsigned u32() const { return parseUnsigned(value, flag); }

    sim::CampaignSpec spec;
    sim::FarmOptions farm;
    check::VerifyOptions verify;
    sim::SimConfig &cfg() { return spec.base; }
    core::RatConfig &rat() { return spec.base.core.rat; }
    /** cfg() for a --sample-* / --phase-* flag; they need --sampled. */
    sim::SimConfig &tuned()
    {
        sampledParams = true;
        return spec.base;
    }

    std::string workload = "art,mcf"; ///< run, report, verify
    std::string group;
    std::string policy = "RaT";
    bool fairness = false;
    std::string policies = "ICOUNT,RaT"; ///< sweep, farm
    std::optional<std::string> groups;
    std::optional<std::string> workloads;
    std::string json;
    std::string csv;
    /** A tuned() flag was given (validateSampled diagnoses it
     * without --sampled). */
    bool sampledParams = false;
    unsigned workerId = 0; ///< --farm-worker
    std::uint64_t killAfter = 0;
};

/** `ratsim --help`, or `ratsim <subcommand> --help`. */
void printHelp(const Cli &c);

/**
 * @p size of a ROB, register file or runahead cache, refused above
 * kMaxStructureEntries before anything is allocated for it.
 */
unsigned
boundedSize(unsigned size, const char *flag)
{
    if (size > kMaxStructureEntries)
        fatal("%s: %u exceeds the limit of %u entries", flag, size,
              kMaxStructureEntries);
    return size;
}

/** A ROB or register-file size: with 0 the core never dispatches. */
unsigned
coreSize(const char *text, const char *flag)
{
    const unsigned size = parseUnsigned(text, flag);
    if (size == 0)
        fatal("%s: a size of 0 builds a core that never dispatches",
              flag);
    return boundedSize(size, flag);
}

/** A comma-separated sweep axis of coreSize values. */
std::vector<unsigned>
coreSizeAxis(const Cli &c)
{
    std::vector<unsigned> values;
    for (const std::string &item : splitList(c.value, ','))
        values.push_back(coreSize(item.c_str(), c.flag));
    if (values.empty())
        fatal("%s: expected a comma-separated list of unsigned "
              "integers, got '%s'",
              c.flag, c.value);
    return values;
}

struct Flag {
    const char *name;
    const char *metavar; ///< the value's placeholder; null: a switch
    unsigned subs;       ///< the subcommands that take it
    const char *help;    ///< a '\n' continues on the next line
    void (*set)(Cli &);
};

/**
 * Every flag of every subcommand. A flag that means one thing in
 * several subcommands is one entry; --regs, --rob, --measure and
 * --ra-variant set one value in run/report/verify and a grid axis in
 * sweep/farm, so they have an entry for each meaning.
 */
const Flag kFlags[] = {
    {"--workload", "P1,P2[,P3,P4]", kOneRun,
     "programs to co-run (default art,mcf)",
     [](Cli &c) { c.workload = c.value; }},
    {"--group", "NAME", kOneRun,
     "a whole Table 2 group (verify refuses it)",
     [](Cli &c) { c.group = c.value; }},
    {"--policy", "NAME", kOneRun,
     "ICOUNT STALL FLUSH DCRA HillClimbing RaT\n"
     "RaT+DCRA MLP RR (default RaT)",
     [](Cli &c) { c.policy = c.value; }},
    {"--measure", "N", kOneRun, "measured cycles (default 100000)",
     [](Cli &c) { c.cfg().measureCycles = c.u64(); }},
    {"--seed", "N", kOneRun, "workload seed (default 1)",
     [](Cli &c) { c.cfg().seed = c.u64(); }},
    {"--regs", "N", kOneRun, "INT and FP renaming registers",
     [](Cli &c) {
         c.cfg().core.intRegs = c.cfg().core.fpRegs =
             coreSize(c.value, c.flag);
     }},
    {"--rob", "N", kOneRun, "shared reorder-buffer entries",
     [](Cli &c) { c.cfg().core.robEntries = coreSize(c.value, c.flag); }},
    {"--digest-window", "N", kOneRun,
     "record a state digest every N cycles (default\n"
     "off; verify compares them, default 256)",
     [](Cli &c) { c.cfg().digestWindow = c.u64(); }},
    {"--check-level", "LEVEL", kOneRun,
     "invariant audits: off (default) sampled full",
     [](Cli &c) {
         const auto level = parseName(core::kCheckLevels, c.value);
         if (!level)
             fatal("%s: unknown level '%s' (off, sampled, full)", c.flag,
                   c.value);
         c.cfg().core.checkLevel = *level;
     }},
    {"--check-interval", "N", kOneRun,
     "cycles between sampled audits (default 64)",
     [](Cli &c) { c.cfg().core.checkInterval = c.u32(); }},
    {"--fairness", nullptr, kRunLike, "also compute Eq. 2 fairness",
     [](Cli &c) { c.fairness = true; }},
    {"--ra-variant", "NAME", kRunLike,
     "classic (default), capped or useless-filter",
     [](Cli &c) { c.rat().variant = parseVariant(c.value); }},
    {"--trace-out", "PATH", kRunLike,
     "Chrome trace-event JSON of the measured window\n"
     "('-' = stdout), for Perfetto",
     [](Cli &c) { c.cfg().traceOut = c.value; }},
    {"--trace-categories", "LIST", kRunLike,
     "comma list of fetch,sched,mem,runahead,all",
     [](Cli &c) {
         if (!obs::parseTraceCategories(c.value, c.cfg().traceCategories))
             fatal("%s: unknown category in '%s' (expected %s)", c.flag,
                   c.value, obs::traceCategoryNames());
     }},
    {"--mutate-at", "N", kVerify,
     "flip one state bit N cycles into the measured\n"
     "window: exit 1 if bisected, 2 if missed",
     [](Cli &c) { c.verify.mutateAt = c.u64(); }},
    {"--policies", "A,B,...", kGrid, "techniques (default ICOUNT,RaT)",
     [](Cli &c) { c.policies = c.value; }},
    {"--groups", "G1,G2,...", kGrid, "Table 2 groups to sweep",
     [](Cli &c) { c.groups = c.value; }},
    {"--workloads", "W1;W2;...", kGrid,
     "explicit workloads, ';'-separated (default\n"
     "art,mcf when no --groups)",
     [](Cli &c) { c.workloads = c.value; }},
    {"--ra-variant", "V1,V2,...", kGrid, "runahead-variant axis",
     [](Cli &c) {
         for (const std::string &name : splitList(c.value, ','))
             c.spec.raVariantAxis.push_back(parseVariant(name));
         if (c.spec.raVariantAxis.empty())
             fatal("%s: expected a comma-separated list of variants",
                   c.flag);
     }},
    {"--regs", "N1,N2,...", kGrid, "renaming-register axis",
     [](Cli &c) { c.spec.regsAxis = coreSizeAxis(c); }},
    {"--rob", "N1,N2,...", kGrid, "ROB-size axis",
     [](Cli &c) { c.spec.robAxis = coreSizeAxis(c); }},
    {"--measure", "N1,N2,...", kGrid, "measured-window axis",
     [](Cli &c) { c.spec.measureAxis = parseU64List(c.value, c.flag); }},
    {"--seeds", "N1,N2,...", kGrid, "seed axis",
     [](Cli &c) { c.spec.seedAxis = parseU64List(c.value, c.flag); }},
    {"--jobs", "N", kGrid, "worker threads (default: usable CPUs)",
     [](Cli &c) { c.spec.parallelism = c.u32(); }},
    {"--cache", "DIR", kGrid | kWorker, "on-disk result cache directory",
     [](Cli &c) { c.spec.cacheDir = c.value; }},
    {"--workers", "N", kFarm, "worker processes (default: usable CPUs)",
     [](Cli &c) { c.farm.workers = c.u32(); }},
    {"--progress", nullptr, kFarm,
     "live cells/steals/deaths/ETA line on stderr",
     [](Cli &c) { c.farm.progress = true; }},
    {"--job-timeout", "N", kFarm,
     "kill + requeue a worker silent for N s (0 = off)",
     [](Cli &c) { c.farm.jobTimeoutSec = c.u32(); }},
    {"--max-retries", "N", kFarm,
     "requeues of a cell before quarantine (default 2)",
     [](Cli &c) { c.farm.maxRetries = c.u32(); }},
    {"--no-respawn", nullptr, kFarm,
     "do not refill dead worker slots",
     [](Cli &c) { c.farm.respawn = false; }},
    {"--worker-id", "N", kWorker, "worker slot, for log prefixes",
     [](Cli &c) { c.workerId = c.u32(); }},
    {"--test-kill-after", "N", kWorker, "die after N cells (farm tests)",
     [](Cli &c) { c.killAfter = c.u64(); }},
    {"--warmup", "N", kEvery, "timed warm-up cycles (default 20000)",
     [](Cli &c) { c.cfg().warmupCycles = c.u64(); }},
    {"--prewarm", "N", kEvery, "functional warm-up insts (default 1M)",
     [](Cli &c) { c.cfg().prewarmInsts = c.u64(); }},
    {"--ra-cap", "N", kEvery, "capped variant: max episode cycles",
     [](Cli &c) { c.rat().cappedMaxCycles = c.u32(); }},
    {"--ra-filter-threshold", "N", kEvery,
     "useless-filter: useless episodes of a PC\n"
     "before it stops entering",
     [](Cli &c) { c.rat().uselessFilterThreshold = c.u32(); }},
    {"--ra-filter-reprobe", "N", kEvery,
     "useless-filter: reprobe every Nth load (0 = never)",
     [](Cli &c) { c.rat().uselessFilterReprobe = c.u32(); }},
    {"--ra-cache-lines", "N", kEvery, "runahead-cache lines per thread",
     [](Cli &c) {
         c.rat().runaheadCacheLines = boundedSize(c.u32(), c.flag);
     }},
    {"--no-fp-drop", nullptr, kEvery, "execute FP work in runahead",
     [](Cli &c) { c.rat().dropFpInRunahead = false; }},
    {"--runahead-cache", nullptr, kEvery, "enable the runahead cache",
     [](Cli &c) { c.rat().useRunaheadCache = true; }},
    {"--no-prefetch", nullptr, kEvery,
     "Fig. 4 ablation: no runahead prefetch",
     [](Cli &c) { c.rat().disablePrefetch = true; }},
    {"--no-ra-fetch", nullptr, kEvery,
     "Fig. 4 ablation: no fetch in runahead",
     [](Cli &c) { c.rat().noFetchInRunahead = true; }},
    {"--no-cycle-skip", nullptr, kRunLike | kSweep,
     "tick every cycle: no quiescence fast-forward",
     [](Cli &c) { c.cfg().core.cycleSkipping = false; }},
    {"--sample-window", "N", kRunLike | kGrid,
     "windowed telemetry every N cycles (default off)",
     [](Cli &c) { c.cfg().sampleWindow = c.u64(); }},
    {"--sampled", nullptr, kEvery,
     "estimate from one checkpointed sample per phase\n"
     "(verify and the digest/trace flags refuse it)",
     [](Cli &c) { c.cfg().sampled = true; }},
    {"--sample-phases", "N", kEvery,
     "phases / representative samples (default 4)",
     [](Cli &c) { c.tuned().samplePhases = c.u32(); }},
    {"--phase-window", "N", kEvery,
     "instructions per profile window (default 2048)",
     [](Cli &c) { c.tuned().phaseWindow = c.u64(); }},
    {"--phase-span", "N", kEvery,
     "profiled windows past prewarm (default 64)",
     [](Cli &c) { c.tuned().phaseSpanWindows = c.u32(); }},
    {"--sample-warmup", "N", kEvery,
     "detailed warm-up cycles per sample (default 1000)",
     [](Cli &c) { c.tuned().sampleWarmupCycles = c.u64(); }},
    {"--sample-measure", "N", kEvery,
     "measured cycles per sample (default 4000)",
     [](Cli &c) { c.tuned().sampleMeasureCycles = c.u64(); }},
    {"--json", "PATH", kReport | kGrid, "write JSON ('-' = stdout)",
     [](Cli &c) { c.json = c.value; }},
    {"--csv", "PATH", kReport | kGrid, "write CSV ('-' = stdout)",
     [](Cli &c) { c.csv = c.value; }},
    {"--list-programs", nullptr, kEvery, "print modelled SPEC2000 programs",
     [](Cli &) {
         for (const auto &name : trace::spec2000Names())
             std::printf("%s\n", name.c_str());
         std::exit(0);
     }},
    {"--list-groups", nullptr, kEvery, "print Table 2 workloads",
     [](Cli &) {
         for (const sim::WorkloadGroup g : sim::allGroups()) {
             std::printf("%s:\n", sim::groupName(g));
             for (const sim::Workload &w : sim::workloadsOf(g))
                 std::printf("  %s\n", w.name.c_str());
         }
         std::exit(0);
     }},
    {"--help", nullptr, kEvery, "this text (also -h)",
     [](Cli &c) {
         printHelp(c);
         std::exit(0);
     }},
};

void
printHelp(const Cli &c)
{
    std::printf("ratsim — Runahead Threads SMT simulator (HPCA 2008 "
                "reproduction)\n\n");
    if (c.bare) {
        std::printf("usage: ratsim [run|report|verify|sweep|farm] "
                    "[options]\n       ratsim <subcommand> --help\n\n");
        for (const Sub &s : kSubs)
            if (s.summary)
                std::printf("  %-8s %s\n", s.name, s.summary);
        std::printf("\noptions of `ratsim [options]`, which is `ratsim "
                    "run`:\n");
    } else {
        std::printf("usage: ratsim %s [options]\n  %s\n\noptions:\n",
                    c.sub->name, c.sub->summary);
    }
    for (const Flag &f : kFlags) {
        if (!(f.subs & c.sub->bit))
            continue;
        std::printf("  %s %-*s  ", f.name,
                    23 - static_cast<int>(std::strlen(f.name)),
                    f.metavar ? f.metavar : "");
        for (const char *p = f.help; *p; ++p) {
            std::putchar(*p);
            if (*p == '\n')
                std::printf("%28s", "");
        }
        std::putchar('\n');
    }
}

/**
 * Set every flag of @p args through kFlags. A flag's value is consumed
 * here, before it could be matched as a flag, so
 * `--workload --list-programs` fails as a bad workload.
 */
void
parseFlags(Cli &c, const std::vector<std::string> &args)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const std::string name = arg == "-h" ? "--help" : arg;
        const Flag *flag = nullptr;
        for (const Flag &f : kFlags)
            if ((f.subs & c.sub->bit) && name == f.name)
                flag = &f;
        if (!flag) {
            if (c.sub->bit == kWorker)
                fatal("farm worker: unknown option '%s'", arg.c_str());
            printHelp(c);
            fatal("unknown option '%s'", arg.c_str());
        }
        c.flag = flag->name;
        c.value = nullptr;
        if (flag->metavar) {
            if (i + 1 >= args.size())
                fatal("option %s needs a value", arg.c_str());
            c.value = args[++i].c_str();
        }
        flag->set(c);
    }
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
    if (cfg.phaseSpanWindows > trace::kMaxSpanWindows)
        fatal("--phase-span %u exceeds the limit of %u windows (the "
              "phase profiler's memory and k-means time grow linearly "
              "with the span)",
              cfg.phaseSpanWindows, trace::kMaxSpanWindows);
    if (!cfg.sampleMeasureCycles)
        fatal("--sample-measure needs a non-zero measured window");
}

/** `ratsim run` / legacy bare invocation / `ratsim report`. */
int
runCommand(Cli &c)
{
    const bool structured = c.sub->bit == kReport;
    sim::SimConfig &base = c.cfg();
    base.core.policy = parsePolicy(c.policy);
    validateSampled(base, c.sampledParams,
                    !c.group.empty() || c.fairness,
                    /*verify_mode=*/false);
    if (!c.group.empty() && !base.traceOut.empty())
        fatal("--trace-out traces one run; --group runs every workload "
              "of the group into the same file (drop --trace-out or "
              "--group)");
    // Structured output defaults to JSON on stdout.
    if (structured && c.json.empty() && c.csv.empty())
        c.json = "-";

    // The run as a campaign: a --group runs through it, and the Eq. 2
    // baselines are its baselineSpec.
    const sim::TechniqueSpec tech{c.policy, base.core.policy,
                                  base.core.rat};
    sim::CampaignSpec &spec = c.spec;
    spec.techniques = {tech};

    if (!c.group.empty()) {
        const auto group = sim::parseGroup(c.group);
        if (!group)
            fatal("unknown group '%s'", c.group.c_str());
        spec.groups = {*group};
        const sim::CampaignOutcome baselines =
            sim::runCampaign(sim::baselineSpec(spec));
        const sim::GroupMetrics gm =
            sim::groupMetrics(spec, sim::runCampaign(spec), &baselines)[0][0];
        if (structured) {
            if (!c.json.empty()) {
                report::Json j = report::Json::object();
                j["schema"] = report::Json("ratsim-group-v1");
                // Effective config: every run in the group uses the
                // group's thread count, not the base default.
                j["config"] = report::toJson(sim::configFor(
                    base, tech, sim::groupThreads(*group)));
                j["groupMetrics"] = report::toJson(gm);
                writeOutput(c.json, j.dump(2), "JSON");
            }
            if (!c.csv.empty())
                writeOutput(c.csv, report::groupMetricsCsv(gm).dump(),
                            "CSV");
            return 0;
        }
        std::printf("%s under %s:\n", c.group.c_str(), c.policy.c_str());
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
        sim::Workload::fromPrograms(splitPrograms(c.workload));
    const sim::SimConfig cfg = sim::configFor(
        base, tech, static_cast<unsigned>(w.programs.size()));
    // Sampled runs dispatch through the same cell runner the
    // campaign/farm use: profile, checkpoint, per-phase samples,
    // merged extrapolation. Exact runs keep the existing path
    // bit-for-bit.
    const sim::SimResult r = base.sampled
                                 ? sim::simulateCell(cfg, w.programs)
                                 : sim::Simulator(cfg, w.programs).run();
    std::optional<sim::BaselineIpcMap> baselines;
    if (c.fairness) {
        spec.workloads = {w};
        baselines = sim::baselineIpcs(
            sim::runCampaign(sim::baselineSpec(spec)));
    }

    if (structured) {
        if (!c.json.empty()) {
            report::Json j = report::Json::object();
            j["schema"] = report::Json("ratsim-run-v1");
            j["workload"] = report::Json(w.name);
            j["technique"] = report::Json(c.policy);
            j["config"] = report::toJson(cfg);
            j["metrics"] = report::resultMetricsJson(r);
            // Engine stats ride only on this always-fresh path; they
            // are not part of toJson(SimResult) (see serialize.hh).
            j["engine"] = report::engineStatsJson(r.engine);
            if (baselines)
                j["fairness"] = report::Json(sim::fairness(r, *baselines));
            j["result"] = report::toJson(r);
            writeOutput(c.json, j.dump(2), "JSON");
        }
        if (!c.csv.empty())
            writeOutput(c.csv, report::threadResultsCsv(r).dump(), "CSV");
        return 0;
    }

    std::printf("workload %s under %s (%llu measured cycles%s)\n\n",
                w.name.c_str(), c.policy.c_str(),
                static_cast<unsigned long long>(base.measureCycles),
                base.sampled ? ", sampled" : "");
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
verifyCommand(Cli &c)
{
    if (!c.group.empty())
        fatal("verify audits one workload (--workload), not a group");
    validateSampled(c.cfg(), c.sampledParams,
                    /*group_or_fairness=*/false, /*verify_mode=*/true);
    c.cfg().core.policy = parsePolicy(c.policy);
    check::VerifyOptions &vopt = c.verify;
    vopt.base = c.cfg();
    vopt.programs = splitPrograms(c.workload);
    if (c.cfg().digestWindow)
        vopt.digestWindow = c.cfg().digestWindow;
    vopt.base.digestWindow = 0; // per-leg windows are set by the driver

    std::printf("verify: workload %s under %s (%llu measured cycles, "
                "digest window %llu%s)\n",
                c.workload.c_str(), c.policy.c_str(),
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
 * (worker processes): the same declarative campaign grid; a
 * completed farm produces byte-identical JSON/CSV to the sweep.
 */
int
sweepCommand(Cli &c)
{
    sim::CampaignSpec &spec = c.spec;
    validateSampled(spec.base, c.sampledParams,
                    /*group_or_fairness=*/false, /*verify_mode=*/false);

    for (const std::string &name : splitList(c.policies, ','))
        spec.techniques.push_back(
            {name, parsePolicy(name), spec.base.core.rat});
    if (spec.techniques.empty())
        fatal("--policies needs at least one technique");

    if (c.groups) {
        for (const std::string &name : splitList(*c.groups, ',')) {
            const auto group = sim::parseGroup(name);
            if (!group)
                fatal("unknown group '%s'", name.c_str());
            spec.groups.push_back(*group);
        }
        if (spec.groups.empty())
            fatal("--groups: expected at least one group name, got '%s'",
                  c.groups->c_str());
    }
    if (c.workloads) {
        spec.workloads = splitWorkloads(*c.workloads);
        if (spec.workloads.empty())
            fatal("--workloads: expected at least one workload, "
                  "got '%s'",
                  c.workloads->c_str());
    }
    // No explicit grid: default to the paper's headline pair.
    if (spec.groups.empty() && spec.workloads.empty())
        spec.workloads = splitWorkloads("art,mcf");

    sim::CampaignOutcome outcome;
    if (c.sub->bit == kFarm) {
        const sim::FarmOutcome farm = sim::runFarm(spec, c.farm);
        outcome = std::move(farm.campaign);
        std::printf("farm: %zu cells (%llu simulated, %llu from cache, "
                    "%llu failed stores)\n",
                    outcome.cells.size(),
                    static_cast<unsigned long long>(outcome.simulated),
                    static_cast<unsigned long long>(outcome.cacheHits),
                    static_cast<unsigned long long>(
                        outcome.failedStores));
        std::printf("farm: %u workers, %llu worker deaths, %llu requeued, "
                    "%llu stolen\n", farm.workersSpawned,
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

    if (!c.json.empty())
        writeOutput(c.json,
                    sim::campaignJson(report_outcome, spec).dump(2),
                    "JSON");
    if (!c.csv.empty())
        writeOutput(c.csv, sim::campaignCsv(report_outcome).dump(), "CSV");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    Cli c;
    for (const Sub &s : kSubs) {
        if (!args.empty() && args[0] == s.name) {
            c.sub = &s;
            c.bare = false;
            args.erase(args.begin());
            break;
        }
    }
    if (c.bare && !args.empty() && !args[0].empty() && args[0][0] != '-') {
        printHelp(c);
        fatal("unknown subcommand '%s'", args[0].c_str());
    }
    parseFlags(c, args);
    switch (c.sub->bit) {
    case kVerify:
        return verifyCommand(c);
    case kSweep:
    case kFarm:
        return sweepCommand(c);
    case kWorker:
        return sim::farmWorkerMain(c.spec.cacheDir, c.workerId,
                                   c.killAfter);
    default: // `ratsim [options]` and `ratsim run` alike
        return runCommand(c);
    }
}
