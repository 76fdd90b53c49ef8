/**
 * @file
 * Per-layer metrics of a traced ratbench run.
 *
 * Each metric is taken from the traced loop where the loop exercises
 * the layer, and otherwise from a small probe on the workload's own
 * programs (the metric's note then starts with "probe"). Probes call
 * the layer's public entry point directly and time it from outside:
 * `TraceGenerator::at`, the perceptron, `MemoryHierarchy::readData`,
 * `profilePhases`, `CheckpointCodec`, the report codec, `ResultCache`,
 * `planCampaign` and `runFarm`.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "bench.hh"
#include "branch/perceptron.hh"
#include "common/rng.hh"
#include "mem/hierarchy.hh"
#include "policy/factory.hh"
#include "report/result_cache.hh"
#include "report/serialize.hh"
#include "sim/checkpoint.hh"
#include "sim/farm.hh"
#include "sim/metrics.hh"
#include "sim/sampled.hh"
#include "trace/generator.hh"
#include "trace/phase.hh"

namespace ratbench {

using rat::report::Json;
using rat::sim::SimConfig;

namespace {

/** Keeps probe results observable so the timed loops are not elided. */
volatile std::uint64_t gSink = 0;

/** Median of @p reps timings of @p fn, in seconds. */
template <typename Fn>
double
timedMedian(int reps, Fn &&fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(secondsSince(t0));
    }
    return median(t);
}

/** The Simulator's own stream recipe for @p programs (sim/simulator.cc). */
std::vector<std::unique_ptr<rat::trace::TraceGenerator>>
streamsOf(const SimConfig &cfg, const std::vector<std::string> &programs)
{
    std::vector<std::unique_ptr<rat::trace::TraceGenerator>> gens;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const std::uint64_t seed = rat::hashCombine(
            cfg.seed, rat::hashCombine(i + 1, 0x7261747321ULL));
        gens.push_back(std::make_unique<rat::trace::TraceGenerator>(
            rat::trace::spec2000(programs[i]), seed,
            (static_cast<rat::Addr>(i) + 1) << 40));
    }
    return gens;
}

std::string
mixOf(const CellSpec &spec)
{
    return spec.label.substr(0, spec.label.find('/'));
}

/**
 * A probe-sized exact variant of @p spec under @p policy: at most 100k
 * prewarm instructions, 20k warmup and 200k measured cycles.
 */
CellSpec
probeCell(const CellSpec &spec, const std::string &policy)
{
    CellSpec p = spec;
    p.cfg = exactOf(spec.cfg);
    p.cfg.prewarmInsts = std::min<rat::InstSeq>(p.cfg.prewarmInsts, 100000);
    p.cfg.warmupCycles = 20000;
    p.cfg.measureCycles = 200000;
    p.cfg.core.policy = *rat::policy::parsePolicyKind(policy);
    p.policy = policy;
    p.label = mixOf(spec) + "/" + policy;
    return p;
}

bool
isRunahead(const std::string &policy)
{
    return policy == "RaT" || policy == "RaT+DCRA";
}

/** Trace, branch, memory and phase probes on the first cell's mix. */
void
substrateProbes(const CellSpec &first, SpanLog &spans, int parent,
                Report &report)
{
    const auto gens = streamsOf(first.cfg, first.programs);
    constexpr rat::InstSeq kOps = 200000;
    const rat::InstSeq start = first.cfg.prewarmInsts;

    std::uint64_t sink = 0;
    {
        ScopedSpan s(spans, "trace.at", "trace", "", parent);
        const double t = timedMedian(3, [&]() {
            for (rat::InstSeq i = 0; i < kOps; ++i)
                for (const auto &g : gens)
                    sink += g->at(start + i).effAddr;
        });
        report.set("trace.ns_per_op",
                   t * 1e9 / static_cast<double>(kOps * gens.size()), "ns",
                   3, "probe: TraceGenerator::at over the first mix");
    }

    struct Branch {
        rat::ThreadId tid;
        rat::Addr pc;
        bool taken;
    };
    struct Load {
        rat::ThreadId tid;
        rat::Addr addr;
    };
    std::vector<Branch> branches;
    std::vector<Load> loads;
    for (rat::InstSeq i = 0; i < kOps; ++i) {
        for (std::size_t t = 0; t < gens.size(); ++t) {
            const rat::trace::MicroOp op = gens[t]->at(start + i);
            const auto tid = static_cast<rat::ThreadId>(t);
            if (op.op == rat::trace::OpClass::Branch)
                branches.push_back({tid, op.pc, op.taken});
            else if (rat::trace::isLoadOp(op.op))
                loads.push_back({tid, op.effAddr});
        }
    }

    {
        ScopedSpan s(spans, "branch.predict_update", "branch", "", parent);
        const double t = timedMedian(3, [&]() {
            rat::branch::PerceptronPredictor pred(first.cfg.core.predictor);
            for (const Branch &b : branches) {
                const auto out = pred.predict(b.tid, b.pc);
                pred.update(b.tid, b.pc, b.taken, out);
            }
            sink += pred.mispredicts();
        });
        report.set("branch.ns_per_predict",
                   t * 1e9 / static_cast<double>(std::max<std::size_t>(
                                 branches.size(), 1)),
                   "ns", 3,
                   "probe: perceptron predict+update, " +
                       std::to_string(branches.size()) + " branches");
    }

    {
        ScopedSpan s(spans, "mem.read_data", "mem", "", parent);
        const double t = timedMedian(3, [&]() {
            rat::mem::MemoryHierarchy mem(first.cfg.mem);
            rat::Cycle now = 0;
            for (const Load &l : loads) {
                const auto r = mem.readData(l.tid, l.addr, now);
                sink += r.completeAt;
                // A rejected access (MSHRs full) retries after fills drain.
                now += r.rejected ? 100 : 1;
            }
        });
        report.set("mem.ns_per_access",
                   t * 1e9 /
                       static_cast<double>(std::max<std::size_t>(loads.size(),
                                                                 1)),
                   "ns", 3,
                   "probe: readData replaying " +
                       std::to_string(loads.size()) + " load addresses");
    }

    {
        ScopedSpan s(spans, "trace.profile_phases", "trace", "", parent);
        std::vector<const rat::trace::TraceSource *> streams;
        for (const auto &g : gens)
            streams.push_back(g.get());
        rat::trace::PhaseConfig pc;
        pc.window = 8192;
        pc.spanWindows = 48;
        pc.phases = 4;
        const double t = timedMedian(3, [&]() {
            sink += rat::trace::profilePhases(streams, start, pc)
                        .samples.size();
        });
        report.set("trace.phase_profile_ms", t * 1e3, "ms", 3,
                   "probe: profilePhases at the pinned sampled point");
    }
    gSink = sink;
}

/** Checkpoint encode/restore after a real prewarm walk. */
void
checkpointProbe(const CellSpec &first, SpanLog &spans, int parent,
                Report &report, bool reportPrewarm, double cellMedian)
{
    const SimConfig cfg = exactOf(first.cfg);
    rat::sim::Simulator src(cfg, first.programs);
    double walk = 0.0;
    {
        ScopedSpan s(spans, "core.prewarm", "core", first.label, parent);
        const auto t0 = Clock::now();
        src.smtCore().prewarm(cfg.prewarmInsts);
        walk = secondsSince(t0);
    }
    std::string blob;
    double encode = 0.0, restore = 0.0;
    {
        ScopedSpan s(spans, "checkpoint.encode", "sim", first.label, parent);
        encode = timedMedian(3, [&]() {
            blob = rat::sim::CheckpointCodec::encode(src);
        });
    }
    bool restored = true;
    {
        ScopedSpan s(spans, "checkpoint.restore", "sim", first.label,
                     parent);
        restore = timedMedian(3, [&]() {
            rat::sim::Simulator dst(cfg, first.programs);
            restored =
                rat::sim::CheckpointCodec::restore(dst, blob) && restored;
        });
    }
    if (blob.empty() || !restored)
        report.notes.push_back("checkpoint probe: encode/restore refused");
    report.set("checkpoint.encode_ms", encode * 1e3, "ms", 3,
               "probe: post-prewarm state of " + first.label);
    report.set("checkpoint.restore_ms", restore * 1e3, "ms", 3,
               "probe: includes the destination's constructor");
    report.set("checkpoint.bytes", static_cast<double>(blob.size()), "B", 1,
               "probe");
    if (reportPrewarm) {
        const double insts = static_cast<double>(cfg.prewarmInsts) *
                             static_cast<double>(first.programs.size());
        report.set("prewarm.s_per_cell", walk, "s", 1,
                   "probe: the walk a cold sampled cell repeats");
        report.set("prewarm.ns_per_inst", walk * 1e9 / insts, "ns", 1,
                   "probe");
        report.set("prewarm.share", cellMedian > 0 ? walk / cellMedian : 0.0,
                   "ratio", 1, "probe walk / median cell wall");
    }
}

/** Wall of the timed phases of one exact run (prewarm excluded). */
double
timedPhases(const CellRun &r)
{
    return r.wall - r.timing.prewarmSeconds;
}

/** Overhead of a host-side observer, alternating off/on runs. */
double
observerOverheadPct(const CellSpec &base, SpanLog &spans, int parent,
                    const std::string &name, const std::string &layer,
                    void (*enable)(SimConfig &, const std::string &),
                    const std::string &tmp)
{
    CellSpec on = base;
    enable(on.cfg, tmp);
    std::vector<double> offT, onT;
    ScopedSpan s(spans, name, layer, base.label, parent);
    for (int i = 0; i < 3; ++i) {
        offT.push_back(timedPhases(runExactCell(base, spans, s.id())));
        onT.push_back(timedPhases(runExactCell(on, spans, s.id())));
    }
    return 100.0 * (median(onT) / median(offT) - 1.0);
}

/** The campaign spec covering @p cells (unique mixes x policies). */
rat::sim::CampaignSpec
campaignOf(const std::vector<CellSpec> &cells)
{
    rat::sim::CampaignSpec spec;
    spec.base = cells.front().cfg;
    std::set<std::string> mixes, policies;
    for (const CellSpec &c : cells) {
        if (mixes.insert(mixOf(c)).second)
            spec.workloads.push_back(
                rat::sim::Workload::fromPrograms(c.programs));
        if (policies.insert(c.policy).second)
            spec.techniques.push_back({c.policy, c.cfg.core.policy,
                                       c.cfg.core.rat});
    }
    return spec;
}

} // namespace

void
runLayerProbes(const Options &opt, SpanLog &spans, const LayerInputs &in,
               Report &report)
{
    const std::vector<CellSpec> &cells = *in.cells;
    const std::vector<CellRun> &runs = *in.runs;
    const CellSpec &first = cells.front();
    const int P = in.probeParent;
    const bool sampled = first.cfg.sampled;
    const bool sweep = opt.workload == "sweep-mix2";
    const double cellMedian = in.tracedCellMedian;

    // ---- model: throughput of RaT against ICOUNT and DCRA ------------
    // Missing (mix, policy) cells run at the workload's own config.
    std::map<std::string, std::map<std::string, double>> tput;
    std::vector<CellSpec> extraSpecs;
    for (const CellRun &r : runs)
        if (r.ok && r.spec)
            tput[r.spec->policy].emplace(mixOf(*r.spec),
                                         rat::sim::throughput(r.result));
    std::set<std::string> mixes;
    for (const CellSpec &c : cells)
        if (mixes.insert(mixOf(c)).second)
            for (const char *p : {"ICOUNT", "DCRA", "RaT"})
                if (!tput[p].count(mixOf(c))) {
                    CellSpec extra = c;
                    extra.cfg.core.policy = *rat::policy::parsePolicyKind(p);
                    extra.policy = p;
                    extra.label = mixOf(c) + "/" + p;
                    extraSpecs.push_back(extra);
                }
    std::vector<CellRun> extraRuns;
    extraRuns.reserve(extraSpecs.size());
    {
        ScopedSpan s(spans, "model.extra_cells", "sim", "", P);
        for (const CellSpec &c : extraSpecs) {
            extraRuns.push_back(c.cfg.sampled
                                    ? runForkedCell(c, spans, s.id())
                                    : runExactCell(c, spans, s.id()));
            tput[c.policy].emplace(mixOf(c), rat::sim::throughput(
                                                 extraRuns.back().result));
        }
    }
    const auto meanTput = [&](const char *p) {
        double sum = 0.0;
        for (const auto &kv : tput[p])
            sum += kv.second;
        return tput[p].empty() ? 0.0
                               : sum / static_cast<double>(tput[p].size());
    };
    const double rat = meanTput("RaT"), icount = meanTput("ICOUNT"),
                 dcra = meanTput("DCRA");
    const std::string modelNote =
        "simulated, mean Eq.1 throughput over " +
        std::to_string(mixes.size()) + " mixes" +
        (extraSpecs.empty() ? "" : " (" + std::to_string(extraSpecs.size()) +
                                       " extra cells)");
    report.set("model.rat_vs_icount_tput_pct",
               icount > 0 ? 100.0 * (rat / icount - 1.0) : 0.0, "%",
               mixes.size(), modelNote);
    report.set("model.rat_vs_dcra_tput_pct",
               dcra > 0 ? 100.0 * (rat / dcra - 1.0) : 0.0, "%", mixes.size(),
               modelNote);
    char fid[512];
    std::snprintf(
        fid, sizeof fid,
        "fidelity: RaT throughput %+.1f%% vs ICOUNT (paper: +37%%), "
        "%+.1f%% vs DCRA (paper: +28%%); paper fairness +36%% / +30%% is "
        "not measured here. The model is unvalidated against hardware and "
        "is compared only to the paper's figures.",
        icount > 0 ? 100.0 * (rat / icount - 1.0) : 0.0,
        dcra > 0 ? 100.0 * (rat / dcra - 1.0) : 0.0);
    report.notes.push_back(fid);

    // ---- sim, prewarm and core, from cells with PhaseTiming ----------
    std::vector<const CellRun *> timed;
    for (const CellRun &r : runs)
        if (r.ok && r.hasTiming)
            timed.push_back(&r);
    for (const CellRun &r : extraRuns)
        if (r.ok && r.hasTiming)
            timed.push_back(&r);

    report.set("sim.construct_ms", median(*in.constructs) * 1e3, "ms",
               in.constructs->size(), "set-up phase constructions");

    if (!sampled) {
        std::vector<double> pw, pwNs, share;
        for (const CellRun &r : runs) {
            if (!r.ok || !r.hasTiming)
                continue;
            const auto &t = r.timing;
            pw.push_back(t.prewarmSeconds);
            pwNs.push_back(t.prewarmSeconds * 1e9 /
                           static_cast<double>(r.spec->cfg.prewarmInsts *
                                               r.spec->programs.size()));
            share.push_back(t.prewarmSeconds / r.wall);
        }
        report.set("prewarm.s_per_cell", median(pw), "s", pw.size());
        report.set("prewarm.ns_per_inst", median(pwNs), "ns", pwNs.size(),
                   "per thread-instruction");
        report.set("prewarm.share", median(share), "ratio", share.size(),
                   "of cell wall");
    }

    // Per-policy host cost of a simulated cycle; probes fill policies
    // the workload does not run with PhaseTiming (sampled cells).
    // Probe runs point at their specs: reserve so neither vector moves.
    std::vector<CellSpec> probeSpecs;
    std::vector<CellRun> probeRuns;
    probeSpecs.reserve(3);
    probeRuns.reserve(3);
    {
        ScopedSpan s(spans, "core.policy_probes", "core", "", P);
        for (const char *p : {"ICOUNT", "DCRA", "RaT"}) {
            std::vector<double> nsc;
            for (const CellRun *r : timed)
                if (r->spec->policy == p && r->result.cycles)
                    nsc.push_back(r->timing.measureSeconds * 1e9 /
                                  static_cast<double>(r->result.cycles));
            std::string note;
            if (nsc.empty()) {
                probeSpecs.push_back(probeCell(first, p));
                probeRuns.push_back(
                    runExactCell(probeSpecs.back(), spans, s.id()));
                const CellRun &r = probeRuns.back();
                nsc.push_back(r.timing.measureSeconds * 1e9 /
                              static_cast<double>(
                                  std::max<rat::Cycle>(r.result.cycles, 1)));
                note = "probe: " + mixOf(first) + ", 200k cycles";
            }
            report.set(std::string("core.ns_per_cycle.") + p, median(nsc),
                       "ns", nsc.size(), note);
        }
    }
    std::vector<const CellRun *> coreRuns;
    for (const CellRun &r : runs)
        if (r.ok && r.hasTiming)
            coreRuns.push_back(&r);
    std::string coreNote;
    if (coreRuns.empty()) {
        for (const CellRun &r : probeRuns)
            coreRuns.push_back(&r);
        coreNote = "probe cells";
    }
    {
        std::vector<double> detail;
        double detailSum = 0.0, commits = 0.0, skipped = 0.0, simulated = 0.0;
        for (const CellRun *r : coreRuns) {
            const auto &t = r->timing;
            detail.push_back(t.warmupSeconds + t.measureSeconds);
            detailSum += t.measureSeconds;
            commits += static_cast<double>(r->result.committedTotal());
            skipped += static_cast<double>(t.warmupSkippedCycles +
                                           t.measureSkippedCycles);
            simulated += static_cast<double>(r->result.cycles +
                                             r->spec->cfg.warmupCycles);
        }
        if (sampled) {
            const std::vector<double> sc = spans.durations("sim.simulate_cell");
            report.set("core.detail_s_per_cell", median(sc), "s", sc.size(),
                       "sampled: samples' detail incl. checkpoint walks");
        } else {
            report.set("core.detail_s_per_cell", median(detail), "s",
                       detail.size(), "warmup + measured window");
        }
        report.set("core.ns_per_committed_inst",
                   commits > 0 ? detailSum * 1e9 / commits : 0.0, "ns",
                   coreRuns.size(), coreNote);
        report.set("core.skip_frac", simulated > 0 ? skipped / simulated : 0.0,
                   "ratio", coreRuns.size(),
                   coreNote.empty() ? "skipped / simulated cycles" : coreNote);
    }

    // ---- simulated memory and runahead counters ----------------------
    {
        double misses = 0.0, commits = 0.0;
        for (const CellRun &r : runs)
            if (r.ok)
                for (const auto &t : r.result.threads) {
                    misses += static_cast<double>(t.mem.l2DemandMisses);
                    commits += static_cast<double>(t.core.committedInsts);
                }
        report.set("mem.l2_mpki", commits > 0 ? misses * 1e3 / commits : 0.0,
                   "1/kinst", runs.size(), "simulated");

        struct Runahead {
            double episodes = 0.0, useless = 0.0, cycles = 0.0;
        };
        const auto count = [](const std::vector<CellRun> &pool) {
            Runahead ra;
            for (const CellRun &r : pool)
                if (r.ok && isRunahead(r.spec->policy)) {
                    const auto &e = r.result.engine;
                    ra.episodes += static_cast<double>(e.episodes);
                    ra.useless += static_cast<double>(e.uselessEpisodes);
                    ra.cycles += static_cast<double>(r.result.cycles);
                }
            return ra;
        };
        Runahead ra = count(runs);
        std::string raNote = "simulated";
        if (ra.episodes == 0.0) {
            // Merged sampled results carry no engine block.
            ra = count(probeRuns);
            raNote = "probe: exact RaT cell";
        }
        report.set("runahead.episodes_per_kcycle",
                   ra.cycles > 0 ? ra.episodes * 1e3 / ra.cycles : 0.0,
                   "1/kcycle", 1, raNote);
        report.set("runahead.useful_frac",
                   ra.episodes > 0 ? 1.0 - ra.useless / ra.episodes : 0.0,
                   "ratio", 1, raNote);
    }

    // ---- report: serialize / parse / cache ---------------------------
    {
        std::vector<double> ser, par;
        ScopedSpan s(spans, "report.codec", "report", "", P);
        std::size_t n = 0;
        for (const CellRun &r : runs) {
            if (!r.ok || n++ >= 16)
                continue;
            std::string text;
            ser.push_back(timedMedian(3, [&]() {
                text = rat::report::toJson(r.result).dump();
            }));
            par.push_back(timedMedian(3, [&]() {
                rat::sim::SimResult back;
                const auto j = Json::parse(text);
                if (!j || !rat::report::fromJson(*j, back))
                    report.notes.push_back("report probe: parse failed");
            }));
        }
        report.set("report.serialize_us", median(ser) * 1e6, "us",
                   ser.size(), "toJson(SimResult).dump");
        report.set("report.parse_us", median(par) * 1e6, "us", par.size(),
                   "Json::parse + fromJson");
    }
    if (sweep) {
        const auto st = spans.durations("report.cache_store");
        const auto ld = spans.durations("report.cache_load");
        report.set("report.cache_store_ms", median(st) * 1e3, "ms", st.size(),
                   "cold pass");
        report.set("report.cache_load_ms", median(ld) * 1e3, "ms", ld.size(),
                   "warm re-run");
        const auto pl = spans.durations("campaign.plan");
        report.set("campaign.plan_ms", median(pl) * 1e3, "ms", pl.size(),
                   "fresh cache");
    } else {
        ScopedSpan s(spans, "report.cache", "report", "", P);
        const rat::report::ResultCache cache(freshDir(opt, "cache"));
        std::vector<double> st, ld;
        std::vector<std::string> keys;
        for (const CellRun &r : runs) {
            if (!r.ok || keys.size() >= 16)
                continue;
            keys.push_back(rat::report::ResultCache::keyFor(
                r.spec->cfg, r.spec->programs));
            const auto t0 = Clock::now();
            cache.store(keys.back(), r.result);
            st.push_back(secondsSince(t0));
        }
        for (const std::string &k : keys) {
            const auto t0 = Clock::now();
            if (!cache.load(k))
                report.notes.push_back("cache probe: load missed");
            ld.push_back(secondsSince(t0));
        }
        report.set("report.cache_store_ms", median(st) * 1e3, "ms", st.size(),
                   "probe: ResultCache::store of loop results");
        report.set("report.cache_load_ms", median(ld) * 1e3, "ms", ld.size(),
                   "probe: ResultCache::load");
    }

    // ---- campaign planning and farm overhead -------------------------
    if (!sweep) {
        ScopedSpan s(spans, "campaign.plan_probe", "sim", "", P);
        const rat::sim::CampaignSpec spec = campaignOf(cells);
        std::vector<double> t;
        for (int i = 0; i < 5; ++i) {
            const rat::report::ResultCache cache(freshDir(opt, "plan"));
            const auto t0 = Clock::now();
            rat::sim::planCampaign(spec, cache);
            t.push_back(secondsSince(t0));
        }
        report.set("campaign.plan_ms", median(t) * 1e3, "ms", t.size(),
                   "probe: planCampaign of this workload's grid");

        // Farm overhead on a probe-sized copy of the grid.
        rat::sim::CampaignSpec small = spec;
        small.base = exactOf(small.base);
        small.base.prewarmInsts = 20000;
        small.base.warmupCycles = 2000;
        small.base.measureCycles = 20000;
        small.parallelism = 2;
        small.cacheDir = freshDir(opt, "farm-camp");
        const double camp = timedMedian(1, [&]() {
            rat::sim::runCampaign(small);
        });
        small.cacheDir = freshDir(opt, "farm");
        rat::sim::FarmOptions fo;
        fo.workers = 2;
        bool done = true;
        const double farm = timedMedian(1, [&]() {
            done = rat::sim::runFarm(small, fo).completed;
        });
        if (!done)
            report.notes.push_back("farm probe: incomplete");
        report.set("farm.overhead_frac", farm / camp - 1.0, "ratio", 1,
                   "probe: runFarm vs runCampaign, 2 workers, grid at "
                   "20k/2k/20k");
    }

    // ---- substrate probes and checkpoints ----------------------------
    substrateProbes(first, spans, P, report);
    checkpointProbe(first, spans, P, report, sampled, cellMedian);

    // ---- sampled accuracy against exact runs -------------------------
    {
        ScopedSpan s(spans, "sampled.accuracy", "sim", "", P);
        std::vector<CellSpec> pinned;
        std::vector<const CellRun *> est;
        std::vector<CellRun> probeEst;
        std::string note = "exact vs sampled, same seed";
        if (sampled) {
            std::set<std::string> seen;
            for (const CellRun &r : runs)
                if (r.ok && seen.insert(r.spec->label).second)
                    est.push_back(&r);
        } else {
            for (const CellSpec &c : cellsFor("sampled", opt.seed))
                if (c.programs.size() == 2)
                    pinned.push_back(c);
            probeEst.reserve(pinned.size());
            for (const CellSpec &c : pinned)
                probeEst.push_back(runForkedCell(c, spans, s.id()));
            for (const CellRun &r : probeEst)
                est.push_back(&r);
            note = "probe: pinned MIX2 point, " + note;
        }
        double worst = 0.0;
        std::size_t covered = 0;
        for (const CellRun *r : est) {
            CellSpec exact = *r->spec;
            exact.cfg = exactOf(exact.cfg);
            const CellRun x = runExactCell(exact, spans, s.id());
            const double ref = rat::sim::hmeanIpc(x.result);
            const double err =
                ref > 0
                    ? 100.0 * std::abs(rat::sim::hmeanIpc(r->result) - ref) /
                          ref
                    : 0.0;
            worst = std::max(worst, err);
            covered += err <= 100.0 * r->result.sampled.hmeanError ? 1 : 0;
        }
        report.set("sampled.err_pct_max", worst, "%", est.size(), note);
        report.set("sampled.bar_coverage",
                   est.empty() ? 0.0
                               : static_cast<double>(covered) /
                                     static_cast<double>(est.size()),
                   "ratio", est.size(), "cells whose hmeanError covers it");
    }

    // ---- observer overheads ------------------------------------------
    {
        const CellSpec base = probeCell(first, first.policy);
        const std::string tmp = freshDir(opt, "obs") + "/trace.json";
        report.set(
            "obs.tracer_overhead_pct",
            observerOverheadPct(
                base, spans, P, "obs.tracer_probe", "obs",
                [](SimConfig &c, const std::string &path) {
                    c.traceOut = path;
                },
                tmp),
            "%", 3, "probe: cycle tracer on vs off, timed phases");
        report.set(
            "check.audit_overhead_pct",
            observerOverheadPct(
                base, spans, P, "check.audit_probe", "check",
                [](SimConfig &c, const std::string &) {
                    c.core.checkLevel = rat::core::CheckLevel::Sampled;
                },
                tmp),
            "%", 3, "probe: --check-level sampled vs off, timed phases");
    }
    report.set("bench.trace_overhead_pct",
               in.untracedCellMedian > 0
                   ? 100.0 * (in.tracedCellMedian / in.untracedCellMedian -
                              1.0)
                   : 0.0,
               "%", 2, "traced vs untraced median cell wall");
}

} // namespace ratbench
