/**
 * @file
 * The four ratbench workloads, their closed measurement loops and the
 * output check.
 *
 * Every workload is a closed loop from one process: the next cell (or
 * campaign) starts when the previous one finished. The loop runs a
 * fixed number of whole passes over the workload's cells, derived from
 * the time budget and the pass's nominal duration, so every run at a
 * given budget does the same work: the sample count (and with it the
 * tail percentile) does not swing with the host's speed.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "policy/factory.hh"
#include "report/result_cache.hh"
#include "report/serialize.hh"
#include "sim/farm.hh"
#include "sim/sampled.hh"
#include "sim/workloads.hh"

namespace ratbench {

namespace fs = std::filesystem;
using rat::report::Json;
using rat::sim::SimConfig;

namespace {

std::string
joinPrograms(const std::vector<std::string> &programs)
{
    std::string out;
    for (const std::string &p : programs)
        out += (out.empty() ? "" : ",") + p;
    return out;
}

CellSpec
makeCell(const std::vector<std::string> &programs, const std::string &policy,
         SimConfig cfg, std::uint64_t seed)
{
    const auto kind = rat::policy::parsePolicyKind(policy);
    if (!kind)
        throw std::runtime_error("unknown policy " + policy);
    cfg.core.numThreads = static_cast<unsigned>(programs.size());
    cfg.core.policy = *kind;
    cfg.seed = seed;
    return {joinPrograms(programs) + "/" + policy, policy, programs, cfg};
}

/**
 * The pinned sampled operating point (tests/sim/test_sampled.cc and
 * bench/perf_sampled.cc): 4 phases of 8192-inst windows over a
 * 48-window span, 2k + 23.25k detailed cycles per sample, standing in
 * for a 5k + 500k-cycle exact window after a 100k-inst prewarm.
 */
SimConfig
sampledConfig()
{
    SimConfig cfg;
    cfg.prewarmInsts = 100000;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 500000;
    cfg.sampled = true;
    cfg.samplePhases = 4;
    cfg.phaseWindow = 8192;
    cfg.phaseSpanWindows = 48;
    cfg.sampleWarmupCycles = 2000;
    cfg.sampleMeasureCycles = 23250;
    return cfg;
}

std::uint64_t
fnv(const std::string &text)
{
    return rat::report::fnv1a64(text);
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

/** The default-seed digest table: "<workload> <cell> <fnv1a hex>". */
std::map<std::string, std::string>
loadDigests(const Options &opt)
{
    std::map<std::string, std::string> table;
    if (opt.digestFile.empty() || opt.seed != kDigestSeed)
        return table;
    std::ifstream in(opt.digestFile);
    std::string workload, cell, digest;
    while (in >> workload >> cell >> digest)
        if (workload == opt.workload)
            table[cell] = digest;
    return table;
}

/** Output check of one finished cell. */
class OutputCheck
{
  public:
    OutputCheck(const Options &opt, Report &report)
        : opt_(opt), report_(report), digests_(loadDigests(opt))
    {
        if (!opt.recordDigests && opt.seed == kDigestSeed && digests_.empty())
            throw std::runtime_error("no digest table for workload " +
                                     opt.workload + " in " + opt.digestFile);
    }

    /** Count one attempted cell; false when it failed. */
    bool
    check(const std::string &label, const CellRun &run)
    {
        ++report_.attempted;
        if (!run.ok)
            return fail(label + ": " + run.error);
        const std::string digest = hex(fnv(run.serialized));
        if (opt_.recordDigests) {
            if (recorded_.insert(label).second)
                std::printf("%s %s %s\n", opt_.workload.c_str(),
                            label.c_str(), digest.c_str());
            return true;
        }
        if (!digests_.empty()) {
            const auto it = digests_.find(label);
            if (it == digests_.end())
                return fail(label + ": no recorded digest");
            if (it->second != digest)
                return fail(label + ": digest " + digest + " != recorded " +
                            it->second);
        }
        return true;
    }

    /** Record a failure found after the cell was counted. */
    void
    lateFailure(const std::string &why)
    {
        ++report_.failed;
        report_.failures.push_back(why);
    }

  private:
    bool
    fail(const std::string &why)
    {
        ++report_.failed;
        report_.failures.push_back(why);
        return false;
    }

    const Options &opt_;
    Report &report_;
    std::map<std::string, std::string> digests_;
    std::set<std::string> recorded_;
};

CellRun
runCell(const CellSpec &spec, SpanLog &spans, int parent)
{
    return spec.cfg.sampled ? runForkedCell(spec, spans, parent)
                            : runExactCell(spec, spans, parent);
}

/** Serialize and check one cell, with report/check spans. */
void
finishCell(CellRun &run, SpanLog &spans, int parent, OutputCheck &check)
{
    if (run.ok && run.serialized.empty()) {
        ScopedSpan s(spans, "report.serialize", "report", run.spec->label,
                     parent);
        run.serialized = serializeResult(run.result);
    }
    ScopedSpan s(spans, "check.digest", "check", run.spec->label, parent);
    run.ok = check.check(run.spec->label, run) && run.ok;
}

/**
 * Re-run one deterministically chosen cell with cycle skipping off; its
 * serialized result must match the loop's byte for byte.
 */
void
noSkipCheck(const Options &opt, const std::vector<CellRun> &runs,
            SpanLog &spans, int parent, OutputCheck &check,
            Report &report)
{
    if (runs.empty() || opt.recordDigests)
        return;
    const CellRun &ref =
        runs[fnv("noskip" + std::to_string(opt.seed)) % runs.size()];
    if (!ref.ok)
        return;
    CellSpec slow = *ref.spec;
    slow.cfg.core.cycleSkipping = false;
    ScopedSpan span(spans, "check.noskip_rerun", "check", slow.label,
                    parent);
    CellRun rerun = runCell(slow, spans, span.id());
    if (rerun.ok && rerun.serialized.empty())
        rerun.serialized = serializeResult(rerun.result);
    if (!rerun.ok || rerun.serialized != ref.serialized)
        check.lateFailure(slow.label + ": result with cycleSkipping=false " +
                          "differs" +
                          (rerun.ok ? "" : " (" + rerun.error + ")"));
    report.notes.push_back("output check: " + slow.label +
                           " re-run with cycleSkipping=false, " +
                           (rerun.ok && rerun.serialized == ref.serialized
                                ? "byte-identical"
                                : "MISMATCH"));
}

/**
 * Nominal seconds of one pass on a 4-core x86 host (Release, GCC 12):
 * 16 default MIX4 cells; one 90-cell campaign on 2 threads; 6 cold
 * sampled cells.
 */
double
nominalPassSeconds(const std::string &workload)
{
    if (workload == "cell-mix4")
        return 11.0;
    if (workload == "sweep-mix2")
        return 12.0;
    return 3.0;
}

/** Whole passes that fit @p budget seconds (nearest, at least one). */
unsigned
passesFor(const std::string &workload, double budget)
{
    return static_cast<unsigned>(
        std::max(1.0, std::floor(budget / nominalPassSeconds(workload) + 0.5)));
}

/** Set-up timings (see timeSetup). */
struct SetupTimes {
    std::vector<double> passes;     ///< seconds per set-up pass
    std::vector<double> constructs; ///< seconds per Simulator constructor
};

/** Seconds to construct one Simulator (its teardown is not timed). */
double
constructSeconds(const SimConfig &cfg,
                 const std::vector<std::string> &programs)
{
    const auto t0 = Clock::now();
    const auto sim = std::make_unique<rat::sim::Simulator>(cfg, programs);
    return secondsSince(t0);
}

/**
 * Time @p reps passes of the workload's set-up work into @p st: for
 * sweep-mix2 (@p campaign set) the cache open and the campaign's
 * expansion and probe, then one Simulator construction per cell a pass
 * simulates. The loops call this between cells (or campaigns), outside
 * their timed wall, so setup_s is a median over set-up passes spread
 * across the whole run: one pass takes milliseconds, and the host's
 * speed swings on that scale.
 */
void
timeSetup(const Options &opt, const std::vector<CellSpec> &cells,
          const rat::sim::CampaignSpec *campaign, int reps, SetupTimes &st)
{
    for (int rep = 0; rep < reps; ++rep) {
        double pass = 0.0;
        const auto construct = [&](const SimConfig &cfg,
                                   const std::vector<std::string> &programs) {
            st.constructs.push_back(constructSeconds(cfg, programs));
            pass += st.constructs.back();
        };
        if (campaign) {
            rat::sim::CampaignSpec spec = *campaign;
            spec.cacheDir = freshDir(opt, "setup");
            const auto t0 = Clock::now();
            const rat::report::ResultCache cache(spec.cacheDir);
            const rat::sim::CampaignPlan plan =
                rat::sim::planCampaign(spec, cache);
            pass += secondsSince(t0);
            for (const std::size_t i : plan.leads)
                construct(plan.outcome.cells[i].config,
                          plan.outcome.cells[i].programs);
        } else {
            for (const CellSpec &cell : cells)
                construct(cell.cfg, cell.programs);
        }
        st.passes.push_back(pass);
    }
}

/**
 * Closed loop of @p passes whole passes over @p cells, with one set-up
 * pass timed before each cell. @p wall sums the cells' segments only.
 */
std::vector<CellRun>
cellLoop(const Options &opt, const std::vector<CellSpec> &cells,
         unsigned passes, SpanLog &spans, int parent, OutputCheck &check,
         double &wall, SetupTimes &setup)
{
    std::vector<CellRun> runs;
    wall = 0.0;
    for (unsigned pass = 0; pass < passes; ++pass) {
        for (const CellSpec &cell : cells) {
            timeSetup(opt, cells, nullptr, 1, setup);
            const auto t0 = Clock::now();
            runs.push_back(runCell(cell, spans, parent));
            finishCell(runs.back(), spans, parent, check);
            wall += secondsSince(t0);
        }
    }
    return runs;
}

std::vector<double>
walls(const std::vector<CellRun> &runs)
{
    std::vector<double> out;
    for (const CellRun &r : runs)
        out.push_back(r.wall);
    return out;
}

double
simulatedInsts(const std::vector<CellRun> &runs)
{
    double n = 0.0;
    for (const CellRun &r : runs)
        n += r.simulatedInsts;
    return n;
}

void
endToEnd(Report &report, const std::vector<double> &cellWalls,
         double loopWall, double insts, std::size_t cells,
         const SetupTimes &setup, const std::string &cellNote)
{
    const Tail tail = tailOf(cellWalls);
    report.set("cell_s_p50", median(cellWalls), "s", cellWalls.size(),
               cellNote);
    char note[96];
    std::snprintf(note, sizeof note, "p%.0f, %zu samples beyond",
                  tail.percentile, tail.beyond);
    report.set("cell_s_tail", tail.value, "s", cellWalls.size(),
               cellNote.empty() ? note : cellNote + "; " + note);
    report.set("cells_per_s", static_cast<double>(cells) / loopWall, "1/s",
               cells);
    report.set("sim_mips", insts / loopWall / 1e6, "MIPS", cells,
               "simulated measured-window commits / total wall");
    report.set("setup_s", median(setup.passes), "s", setup.passes.size(),
               "median set-up pass: " +
                   std::to_string(setup.constructs.size() /
                                  setup.passes.size()) +
                   " Simulator constructions per pass");
    report.set("peak_rss_mb", peakRssMb(), "MB", 1, "getrusage maxrss");
    report.set("fail_rate",
               report.attempted
                   ? static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted)
                   : 0.0,
               "ratio", report.attempted);
}

// ---- the cell workloads ---------------------------------------------

bool
runCellWorkload(const Options &opt, SpanLog &spans, Report &report)
{
    const std::vector<CellSpec> cells = cellsFor(opt.workload, opt.seed);
    OutputCheck check(opt, report);
    SetupTimes setup;
    double wall = 0.0;

    if (!opt.trace) {
        const std::vector<CellRun> runs =
            cellLoop(opt, cells, passesFor(opt.workload, opt.seconds), spans,
                     -1, check, wall, setup);
        noSkipCheck(opt, runs, spans, -1, check, report);
        for (const CellRun &r : runs)
            report.cellWalls.emplace_back(r.spec->label, r.wall);
        endToEnd(report, walls(runs), wall, simulatedInsts(runs),
                 runs.size(), setup, "");
        return true;
    }

    // Traced run: an untraced half for the overhead baseline, then the
    // traced half the per-layer metrics come from.
    const unsigned half = passesFor(opt.workload, opt.seconds / 2);
    SpanLog off(false, opt.workload);
    double offWall = 0.0;
    const std::vector<CellRun> offRuns =
        cellLoop(opt, cells, half, off, -1, check, offWall, setup);

    // The set-up passes between cells fall outside the traced wall.
    const int root = spans.open("loop", "bench", "", -1);
    const std::vector<CellRun> runs =
        cellLoop(opt, cells, half, spans, root, check, wall, setup);
    spans.close(root);
    report.layerSelf = spans.selfTime(root, false);
    report.spanSelf = spans.selfTime(root, true);
    report.tracedWall = wall;

    const int probes = spans.open("probes", "bench", "", -1);
    noSkipCheck(opt, runs, spans, probes, check, report);
    LayerInputs in;
    in.cells = &cells;
    in.runs = &runs;
    in.untracedCellMedian = median(walls(offRuns));
    in.tracedCellMedian = median(walls(runs));
    in.constructs = &setup.constructs;
    in.probeParent = probes;
    runLayerProbes(opt, spans, in, report);
    spans.close(probes);
    return true;
}

// ---- sweep-mix2 ------------------------------------------------------

constexpr unsigned kSweepThreads = 2;

/** Set-up passes timed before, between and after the campaigns. */
constexpr int kSweepSetupReps = 8;

/** Largest replica-vs-runCampaign wall difference (the metrics' bound). */
constexpr double kReplicaBound = 0.25;

rat::sim::CampaignOutcome
timedCampaign(const Options &opt, const rat::sim::CampaignSpec &base,
              double &wall)
{
    rat::sim::CampaignSpec spec = base;
    spec.cacheDir = freshDir(opt, "sweep");
    const auto t0 = Clock::now();
    rat::sim::CampaignOutcome out = rat::sim::runCampaign(spec);
    wall = secondsSince(t0);
    return out;
}

CellSpec
specOf(const rat::sim::CampaignCell &c)
{
    return {c.workload + "/" + c.technique, c.technique, c.programs,
            c.config};
}

/** Wrap finished campaign cells as CellRuns (for checks and layers). */
std::vector<CellRun>
campaignRuns(const rat::sim::CampaignOutcome &out,
             std::vector<CellSpec> &specs)
{
    specs.clear();
    specs.reserve(out.cells.size());
    for (const auto &c : out.cells)
        specs.push_back(specOf(c));
    std::vector<CellRun> runs;
    for (std::size_t i = 0; i < out.cells.size(); ++i) {
        CellRun r;
        r.spec = &specs[i];
        r.result = out.cells[i].result;
        r.simulatedInsts = static_cast<double>(r.result.committedTotal());
        r.ok = !r.result.threads.empty();
        if (!r.ok)
            r.error = "campaign cell has no result";
        runs.push_back(std::move(r));
    }
    return runs;
}

/**
 * The traced sweep pass: a replica of runCampaign's plan / simulate /
 * store / fan-out steps, run by the benchmark so every call into a
 * layer gets its own span. runCampaign has no hooks, so the replica is
 * the only way to attribute its time; runSweepWorkload checks that the
 * replica's wall per cell stays within the bound of runCampaign's.
 */
void
tracedCampaign(const Options &opt, const rat::sim::CampaignSpec &base,
               SpanLog &spans, int root, std::vector<CellSpec> &specs,
               std::vector<CellRun> &runs)
{
    rat::sim::CampaignSpec spec = base;
    spec.cacheDir = freshDir(opt, "traced");
    const rat::report::ResultCache cache(spec.cacheDir);
    rat::sim::CampaignPlan plan;
    {
        ScopedSpan s(spans, "campaign.plan", "sim", "", root);
        plan = rat::sim::planCampaign(spec, cache);
    }
    auto &cells = plan.outcome.cells;
    specs.clear();
    specs.reserve(cells.size());
    for (const auto &c : cells)
        specs.push_back(specOf(c));
    runs.assign(cells.size(), CellRun{});

    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::string error;
    const auto worker = [&]() {
        try {
            for (std::size_t k = next++; k < plan.leads.size(); k = next++) {
                const std::size_t i = plan.leads[k];
                CellRun run = runExactCell(specs[i], spans, root);
                {
                    ScopedSpan s(spans, "report.serialize", "report",
                                 specs[i].label, root);
                    run.serialized = serializeResult(run.result);
                }
                {
                    ScopedSpan s(spans, "report.cache_store", "report",
                                 specs[i].label, root);
                    cache.store(cells[i].key, run.result);
                }
                cells[i].result = run.result;
                runs[i] = std::move(run);
            }
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(errorMutex);
            error = e.what();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kSweepThreads; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (!error.empty())
        throw std::runtime_error(error);
    rat::sim::fanOutDuplicates(plan.outcome, plan.pending);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (runs[i].spec)
            continue;
        runs[i].spec = &specs[i];
        runs[i].result = cells[i].result;
        runs[i].serialized = serializeResult(cells[i].result);
    }

    // Warm re-run of the same grid: every cell is a cache load.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ScopedSpan s(spans, "report.cache_load", "report", specs[i].label,
                     root);
        if (!cache.load(cells[i].key))
            throw std::runtime_error("warm cache missed " + specs[i].label);
    }
}

bool
runSweepWorkload(const Options &opt, SpanLog &spans, Report &report)
{
    rat::sim::CampaignSpec spec = sweepSpec(opt.seed);
    spec.parallelism = kSweepThreads;
    OutputCheck check(opt, report);

    SetupTimes setup;

    // Untraced campaigns: whole grids within the budget.
    SpanLog off(false, opt.workload);
    std::vector<double> perCell;
    std::vector<CellSpec> specs;
    std::vector<CellRun> runs;
    double loopWall = 0.0, insts = 0.0;
    std::size_t cellsDone = 0;
    const unsigned passes =
        opt.trace ? 1 : passesFor(opt.workload, opt.seconds);
    for (unsigned pass = 0; pass < passes; ++pass) {
        timeSetup(opt, {}, &spec, kSweepSetupReps, setup);
        double wall = 0.0;
        const auto outcome = timedCampaign(opt, spec, wall);
        std::vector<CellSpec> passSpecs;
        std::vector<CellRun> passRuns = campaignRuns(outcome, passSpecs);
        for (CellRun &r : passRuns)
            finishCell(r, off, -1, check);
        loopWall += wall;
        insts += simulatedInsts(passRuns);
        cellsDone += passRuns.size();
        perCell.push_back(wall / static_cast<double>(passRuns.size()));
        if (runs.empty()) {
            // Moving the vectors keeps the spec pointers valid.
            specs = std::move(passSpecs);
            runs = std::move(passRuns);
        }
    }

    timeSetup(opt, {}, &spec, kSweepSetupReps, setup);

    if (!opt.trace) {
        noSkipCheck(opt, runs, spans, -1, check, report);
        endToEnd(report, perCell, loopWall, insts, cellsDone, setup,
                 "per campaign: wall / cells");
        return true;
    }

    const int root = spans.open("loop", "bench", "", -1);
    const auto t0 = Clock::now();
    std::vector<CellSpec> tracedSpecs;
    std::vector<CellRun> tracedRuns;
    tracedCampaign(opt, spec, spans, root, tracedSpecs, tracedRuns);
    const double tracedWall = secondsSince(t0);
    spans.close(root);
    report.layerSelf = spans.selfTime(root, false);
    report.spanSelf = spans.selfTime(root, true);
    report.tracedWall = tracedWall;
    report.tracedThreads = kSweepThreads;
    {
        // The layer figures describe the replica; they describe
        // runCampaign only while the two take the same wall per cell.
        const double real = median(perCell);
        const double replica =
            tracedWall / static_cast<double>(tracedRuns.size());
        const double diff = replica / real - 1.0;
        char note[256];
        std::snprintf(note, sizeof note,
                      "layer attribution: traced replica of runCampaign "
                      "%.4f s/cell vs runCampaign %.4f s/cell (%+.1f%%): "
                      "%s",
                      replica, real, 100.0 * diff,
                      std::abs(diff) <= kReplicaBound
                          ? "valid"
                          : "INVALID, per-layer figures of this run do not "
                            "describe runCampaign");
        report.notes.push_back(note);
    }
    for (std::size_t i = 0; i < tracedRuns.size(); ++i)
        if (tracedRuns[i].serialized != runs[i].serialized)
            check.lateFailure(tracedSpecs[i].label +
                              ": traced pass differs from runCampaign");

    const int probes = spans.open("probes", "bench", "", -1);
    noSkipCheck(opt, runs, spans, probes, check, report);

    // Farm overhead: the same grid through runFarm with equal workers.
    {
        ScopedSpan s(spans, "farm.run", "sim", "", probes);
        rat::sim::CampaignSpec farmSpec = spec;
        farmSpec.cacheDir = freshDir(opt, "farm");
        rat::sim::FarmOptions fo;
        fo.workers = kSweepThreads;
        const auto tf = Clock::now();
        const rat::sim::FarmOutcome farm = rat::sim::runFarm(farmSpec, fo);
        const double farmWall = secondsSince(tf);
        if (!farm.completed)
            check.lateFailure("farm run incomplete: " + farm.error);
        for (std::size_t i = 0;
             farm.completed && i < farm.campaign.cells.size(); ++i)
            if (serializeResult(farm.campaign.cells[i].result) !=
                runs[i].serialized)
                check.lateFailure(tracedSpecs[i].label +
                                  ": farm result differs from runCampaign");
        report.set("farm.overhead_frac", farmWall / loopWall - 1.0, "ratio",
                   1, "runFarm vs runCampaign, 2 workers each, full grid");
    }

    LayerInputs in;
    in.cells = &tracedSpecs;
    in.runs = &tracedRuns;
    in.untracedCellMedian = median(perCell);
    in.tracedCellMedian =
        tracedWall / static_cast<double>(tracedRuns.size());
    in.constructs = &setup.constructs;
    in.probeParent = probes;
    runLayerProbes(opt, spans, in, report);
    spans.close(probes);
    return true;
}

} // namespace

// ---- public helpers --------------------------------------------------

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cell-mix4", "sweep-mix2", "sampled"};
    return names;
}

std::vector<CellSpec>
cellsFor(const std::string &workload, std::uint64_t seed)
{
    using rat::sim::WorkloadGroup;
    std::vector<CellSpec> cells;
    if (workload == "cell-mix4") {
        // `ratsim run` at its defaults: 1M-inst prewarm, 20k + 100k.
        for (const auto &w : rat::sim::workloadsOf(WorkloadGroup::MIX4))
            for (const char *p : {"RaT", "ICOUNT"})
                cells.push_back(makeCell(w.programs, p, SimConfig{}, seed));
    } else if (workload == "sampled") {
        const std::vector<std::vector<std::string>> mixes = {
            {"mcf", "eon"}, {"art", "mcf", "gzip", "crafty"}};
        for (const auto &m : mixes)
            for (const char *p : {"ICOUNT", "FLUSH", "RaT"})
                cells.push_back(makeCell(m, p, sampledConfig(), seed));
    } else if (workload == "sweep-mix2") {
        for (const auto &w : rat::sim::workloadsOf(WorkloadGroup::MIX2))
            for (const std::string &p : rat::policy::policyKindNames())
                cells.push_back(makeCell(w.programs, p, SimConfig{}, seed));
    }
    return cells;
}

rat::sim::CampaignSpec
sweepSpec(std::uint64_t seed)
{
    rat::sim::CampaignSpec spec;
    spec.base.seed = seed;
    for (const std::string &p : rat::policy::policyKindNames())
        spec.techniques.push_back(
            {p, *rat::policy::parsePolicyKind(p), rat::core::RatConfig{}});
    spec.groups = {rat::sim::WorkloadGroup::MIX2};
    return spec;
}

SimConfig
exactOf(const SimConfig &cfg)
{
    SimConfig exact = cfg;
    exact.sampled = false;
    return exact;
}

std::string
freshDir(const Options &opt, const std::string &tag)
{
    static std::atomic<unsigned> counter{0};
    const fs::path dir = fs::path(opt.tmpDir) /
                         (tag + "-" + std::to_string(::getpid()) + "-" +
                          std::to_string(counter++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

CellRun
runExactCell(const CellSpec &spec, SpanLog &spans, int parent)
{
    CellRun r;
    r.spec = &spec;
    ScopedSpan cell(spans, "cell", "sim", spec.label, parent);
    const auto t0 = Clock::now();
    try {
        std::unique_ptr<rat::sim::Simulator> sim;
        {
            ScopedSpan s(spans, "sim.construct", "sim", spec.label,
                         cell.id());
            sim = std::make_unique<rat::sim::Simulator>(spec.cfg,
                                                        spec.programs);
        }
        const double runStart = spans.enabled() ? spans.now() : 0.0;
        {
            ScopedSpan s(spans, "sim.run", "sim", spec.label, cell.id());
            r.result = sim->run(&r.timing);
            r.simulatedInsts =
                static_cast<double>(r.result.committedTotal());
            const auto &t = r.timing;
            spans.add("core.prewarm", "core", spec.label, s.id(), runStart,
                      t.prewarmSeconds);
            spans.add("core.detail", "core", spec.label, s.id(),
                      runStart + t.prewarmSeconds,
                      t.warmupSeconds + t.measureSeconds);
        }
        r.hasTiming = true;
        ScopedSpan s(spans, "sim.teardown", "sim", spec.label, cell.id());
        sim.reset();
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    r.wall = secondsSince(t0);
    return r;
}

namespace {

/** What a forked cell sends back over its pipe. */
std::string
childPayload(const CellSpec &spec, bool traced)
{
    SpanLog log(traced, "");
    Json out = Json::object();
    const auto t0 = Clock::now();
    rat::sim::SimResult result;
    std::uint64_t simulated = 0;
    {
        ScopedSpan cell(log, "cell.child", "sim", spec.label, -1);
        std::size_t samples = 0;
        {
            ScopedSpan s(log, "trace.phase_plan", "trace", spec.label,
                         cell.id());
            samples = rat::sim::samplePlanFor(spec.cfg, spec.programs)
                          .samples.size();
        }
        // simulateCell's whole-run steps, taken through its per-sample
        // entry point (as campaigns do) so the instructions the samples
        // really commit can be counted; the merge is bit-identical.
        ScopedSpan s(log, "sim.simulate_cell", "sim", spec.label, cell.id());
        std::vector<rat::sim::SimResult> parts;
        for (std::size_t i = 0; i < samples; ++i) {
            ScopedSpan one(log, "sim.sample", "sim", spec.label, s.id());
            SimConfig cfg = spec.cfg;
            cfg.sampleIndex = static_cast<int>(i);
            parts.push_back(rat::sim::simulateCell(cfg, spec.programs));
            simulated += parts.back().committedTotal();
        }
        ScopedSpan merge(log, "sim.merge", "sim", spec.label, s.id());
        result = rat::sim::mergeSampledResults(spec.cfg, spec.programs, parts);
    }
    out["wall"] = secondsSince(t0);
    out["simulated"] = simulated;
    out["serialized"] = serializeResult(result);
    out["episodes"] = result.engine.episodes;
    out["useless"] = result.engine.uselessEpisodes;
    Json spansJson = Json::array();
    for (const Span &s : log.spans()) {
        Json j = Json::object();
        j["name"] = s.name;
        j["layer"] = s.layer;
        j["parent"] = s.parent;
        j["start"] = s.start;
        j["dur"] = s.dur;
        spansJson.push(std::move(j));
    }
    out["spans"] = std::move(spansJson);
    return out.dump();
}

bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

CellRun
runForkedCell(const CellSpec &spec, SpanLog &spans, int parent)
{
    CellRun r;
    r.spec = &spec;
    int fds[2];
    if (::pipe(fds) != 0) {
        r.ok = false;
        r.error = std::string("pipe: ") + std::strerror(errno);
        return r;
    }
    std::fflush(nullptr);
    const double forkAt = spans.enabled() ? spans.now() : 0.0;
    const auto t0 = Clock::now();
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        r.ok = false;
        r.error = std::string("fork: ") + std::strerror(errno);
        return r;
    }
    if (pid == 0) {
        ::close(fds[0]);
        int code = 0;
        try {
            if (!writeAll(fds[1], childPayload(spec, spans.enabled())))
                code = 3;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "ratbench: cell %s: %s\n",
                         spec.label.c_str(), e.what());
            code = 2;
        }
        ::close(fds[1]);
        ::_exit(code);
    }
    ::close(fds[1]);
    std::string payload;
    char buf[1 << 16];
    while (true) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        payload.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    r.wall = secondsSince(t0);

    const auto json = Json::parse(payload);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !json) {
        r.ok = false;
        r.error = "forked cell failed (status " + std::to_string(status) +
                  ")";
        return r;
    }
    r.serialized = json->at("serialized").asString();
    const auto parsed = Json::parse(r.serialized);
    if (!parsed || !rat::report::fromJson(*parsed, r.result)) {
        r.ok = false;
        r.error = "forked cell returned an unparseable result";
        return r;
    }
    r.simulatedInsts = static_cast<double>(json->at("simulated").asU64());
    r.result.engine.episodes = json->at("episodes").asU64();
    r.result.engine.uselessEpisodes = json->at("useless").asU64();

    // Child spans: ids are renumbered, starts shifted to the fork time.
    if (spans.enabled()) {
        const int cellId = spans.add("cell", "sim", spec.label, parent,
                                     forkAt, r.wall);
        std::vector<int> ids;
        for (const Json &s : json->at("spans").elements()) {
            const auto p = s.at("parent").asI64();
            ids.push_back(spans.add(
                s.at("name").asString(), s.at("layer").asString(),
                spec.label,
                p >= 0 ? ids[static_cast<std::size_t>(p)] : cellId,
                forkAt + s.at("start").asDouble(), s.at("dur").asDouble()));
        }
    }
    return r;
}

bool
runWorkload(const Options &opt, SpanLog &spans, Report &report)
{
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        return false;
    report.workload = opt.workload;
    report.seed = opt.seed;
    report.traced = opt.trace;
    return opt.workload == "sweep-mix2"
               ? runSweepWorkload(opt, spans, report)
               : runCellWorkload(opt, spans, report);
}

} // namespace ratbench
