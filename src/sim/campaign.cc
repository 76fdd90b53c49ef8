#include "sim/campaign.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "common/logging.hh"
#include "report/result_cache.hh"
#include "report/serialize.hh"
#include "sim/checkpoint.hh"
#include "sim/metrics.hh"
#include "sim/sampled.hh"

namespace rat::sim {

namespace {

/** An axis with an empty spec collapses to the base config's value. */
template <typename T>
std::vector<T>
axisOrDefault(const std::vector<T> &axis, T base_value)
{
    return axis.empty() ? std::vector<T>{base_value} : axis;
}

} // namespace

std::vector<CampaignCell>
expandCampaign(const CampaignSpec &spec)
{
    RAT_ASSERT(!spec.techniques.empty(),
               "campaign needs at least one technique");

    // Workload list: group members first (Table 2 order), then the
    // explicit extras.
    std::vector<std::pair<std::string, const Workload *>> workloads;
    for (const WorkloadGroup g : spec.groups) {
        for (const Workload &w : workloadsOf(g))
            workloads.emplace_back(groupName(g), &w);
    }
    for (const Workload &w : spec.workloads)
        workloads.emplace_back("", &w);
    RAT_ASSERT(!workloads.empty(),
               "campaign needs at least one group or workload");

    const auto regs =
        axisOrDefault(spec.regsAxis, spec.base.core.intRegs);
    const auto robs = axisOrDefault(spec.robAxis, spec.base.core.robEntries);
    const auto measures =
        axisOrDefault(spec.measureAxis, spec.base.measureCycles);
    const auto seeds = axisOrDefault(spec.seedAxis, spec.base.seed);

    std::vector<CampaignCell> cells;
    cells.reserve(spec.techniques.size() * workloads.size() *
                  std::max<std::size_t>(spec.raVariantAxis.size(), 1) *
                  regs.size() * robs.size() *
                  measures.size() * seeds.size());
    for (const TechniqueSpec &tech : spec.techniques) {
        // An empty variant axis keeps the technique's variant. The
        // runahead engine is inert for non-runahead techniques, so every
        // variant cell would be a bit-identical re-simulation under a
        // distinct cache key; collapse them to one cell.
        const std::vector<runahead::RaVariant> own{tech.rat.variant};
        const auto &tech_variants =
            core::runaheadEnabled(tech.policy) && !spec.raVariantAxis.empty()
                ? spec.raVariantAxis
                : own;
        for (const auto &[group, workload] : workloads) {
            for (const runahead::RaVariant variant : tech_variants) {
                for (const unsigned r : regs) {
                    for (const unsigned rob : robs) {
                        for (const Cycle measure : measures) {
                            for (const std::uint64_t seed : seeds) {
                                CampaignCell cell;
                                cell.technique = tech.label;
                                cell.group = group;
                                cell.workload = workload->name;
                                cell.raVariant =
                                    runahead::raVariantName(variant);
                                cell.regs = r;
                                cell.rob = rob;
                                cell.measureCycles = measure;
                                cell.seed = seed;
                                cell.programs = workload->programs;

                                SimConfig cfg = configFor(
                                    spec.base, tech,
                                    static_cast<unsigned>(
                                        workload->programs.size()));
                                cfg.core.rat.variant = variant;
                                cfg.core.intRegs = r;
                                if (!spec.regsAxis.empty())
                                    cfg.core.fpRegs = r;
                                cfg.core.robEntries = rob;
                                cfg.measureCycles = measure;
                                cfg.seed = seed;
                                checkRunLength(cfg);
                                if (cfg.sampled) {
                                    // One cell per representative
                                    // window (innermost implicit
                                    // axis); the memoized plan makes
                                    // this a pure lookup for every
                                    // technique after the first.
                                    const auto &plan = samplePlanFor(
                                        cfg, cell.programs);
                                    for (std::size_t s = 0;
                                         s < plan.samples.size(); ++s) {
                                        CampaignCell sc = cell;
                                        sc.sampleIndex =
                                            static_cast<int>(s);
                                        sc.config = cfg;
                                        sc.config.sampleIndex =
                                            static_cast<int>(s);
                                        sc.key = report::ResultCache::
                                            keyFor(sc.config,
                                                   sc.programs);
                                        cells.push_back(std::move(sc));
                                    }
                                    continue;
                                }
                                cell.config = cfg;
                                cell.key = report::ResultCache::keyFor(
                                    cfg, cell.programs);
                                cells.push_back(std::move(cell));
                            }
                        }
                    }
                }
            }
        }
    }
    return cells;
}

CampaignPlan
planCampaign(const CampaignSpec &spec, const report::ResultCache &cache)
{
    CampaignPlan plan;
    plan.outcome.cells = expandCampaign(spec);

    // Probe the cache and dedupe: identical keys (e.g. a workload both
    // in a group and listed explicitly) simulate exactly once.
    for (std::size_t i = 0; i < plan.outcome.cells.size(); ++i) {
        CampaignCell &cell = plan.outcome.cells[i];
        if (cache.enabled()) {
            if (auto hit = cache.load(cell.key)) {
                cell.result = std::move(*hit);
                cell.fromCache = true;
                continue;
            }
        }
        plan.pending[cell.key].push_back(i);
    }
    plan.outcome.cacheHits = cache.hits();
    plan.outcome.cacheMisses = cache.misses();
    plan.outcome.cacheQuarantined = cache.quarantined();

    // Leads in key order, then stably grouped by prewarm identity so
    // the cells that can share one walk are adjacent.
    std::vector<std::pair<std::uint64_t, std::size_t>> byIdentity;
    byIdentity.reserve(plan.pending.size());
    for (const auto &[key, indices] : plan.pending) {
        const CampaignCell &lead = plan.outcome.cells[indices.front()];
        byIdentity.emplace_back(prewarmIdentity(lead.config, lead.programs),
                                indices.front());
    }
    std::stable_sort(
        byIdentity.begin(), byIdentity.end(),
        [](const auto &a, const auto &b) { return a.first < b.first; });
    plan.leads.reserve(byIdentity.size());
    for (const auto &[identity, lead] : byIdentity)
        plan.leads.push_back(lead);
    return plan;
}

std::vector<std::vector<std::size_t>>
campaignJobs(const CampaignPlan &plan, unsigned workers)
{
    // Runs of adjacent exact-mode leads with one prewarm identity.
    std::vector<std::vector<std::size_t>> runs;
    bool runOpen = false; // runs.back() may take more leads
    std::uint64_t runIdentity = 0;
    for (const std::size_t lead : plan.leads) {
        const CampaignCell &cell = plan.outcome.cells[lead];
        if (cell.config.sampled) {
            runs.push_back({lead});
            runOpen = false;
            continue;
        }
        const std::uint64_t identity =
            prewarmIdentity(cell.config, cell.programs);
        if (runOpen && identity == runIdentity) {
            runs.back().push_back(lead);
            continue;
        }
        runs.push_back({lead});
        runOpen = true;
        runIdentity = identity;
    }
    if (runs.empty() || runs.size() >= workers)
        return runs;

    // Fewer runs than workers: cut each into near-equal contiguous
    // pieces, each of which walks once.
    const std::size_t pieces = (workers + runs.size() - 1) / runs.size();
    std::vector<std::vector<std::size_t>> jobs;
    for (const std::vector<std::size_t> &run : runs) {
        const std::size_t n = std::min(pieces, run.size());
        for (std::size_t k = 0; k < n; ++k) {
            const auto at = [&run, n](std::size_t piece) {
                return run.begin() +
                       static_cast<std::ptrdiff_t>(piece * run.size() / n);
            };
            jobs.emplace_back(at(k), at(k + 1));
        }
    }
    return jobs;
}

void
fanOutDuplicates(
    CampaignOutcome &outcome,
    const std::map<std::string, std::vector<std::size_t>> &pending)
{
    for (const auto &[key, indices] : pending) {
        for (std::size_t i = 1; i < indices.size(); ++i)
            outcome.cells[indices[i]].result =
                outcome.cells[indices.front()].result;
    }
}

CampaignOutcome
runCampaign(const CampaignSpec &spec)
{
    const report::ResultCache cache(spec.cacheDir);
    CampaignPlan plan = planCampaign(spec, cache);
    CampaignOutcome &outcome = plan.outcome;

    const unsigned workers =
        spec.parallelism ? spec.parallelism : usableCpus();

    // Simulate the unique misses on the worker pool. Each job owns
    // distinct lead cells, so no locking is needed; the counters are
    // atomics because jobs finish concurrently.
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failedStores{0};
    std::atomic<std::uint64_t> walks{0};
    std::atomic<std::uint64_t> restores{0};
    const std::string ckptDir = checkpointDirFor(spec.cacheDir);
    std::vector<std::function<void()>> jobs;
    for (std::vector<std::size_t> &leads : campaignJobs(plan, workers)) {
        jobs.emplace_back([&outcome, &cache, &completed, &failedStores,
                           &walks, &restores, &ckptDir,
                           leads = std::move(leads)] {
            // Post-prewarm state of this job's identity: the first exact
            // cell walks and encodes it, the rest restore it. One blob
            // per worker is alive, freed when the job ends.
            PrewarmCheckpoint ckpt;
            for (const std::size_t lead : leads) {
                CampaignCell &cell = outcome.cells[lead];
                if (cell.config.sampled) {
                    cell.result =
                        simulateCell(cell.config, cell.programs, ckptDir);
                } else {
                    bool restored = false;
                    cell.result = restoreOrWalk(cell.config, cell.programs,
                                                ckpt, restored);
                    (restored ? restores : walks).fetch_add(1);
                }
                // Count completion only after the simulation finished:
                // a throwing cell must not inflate the simulated count.
                completed.fetch_add(1);
                if (cache.enabled() && !cache.store(cell.key, cell.result))
                    failedStores.fetch_add(1);
            }
        });
    }
    runParallel(jobs, workers);
    outcome.simulated = completed.load();
    outcome.failedStores = failedStores.load();
    outcome.prewarmWalks = walks.load();
    outcome.prewarmRestores = restores.load();

    fanOutDuplicates(outcome, plan.pending);
    return outcome;
}

CampaignSpec
baselineSpec(const CampaignSpec &spec)
{
    CampaignSpec st = spec;
    st.base.traceOut.clear();
    st.techniques = {techniqueOf(core::PolicyKind::Icount)};
    st.groups.clear();
    st.workloads.clear();
    std::set<std::string> seen;
    const auto addPrograms = [&st, &seen](const Workload &w) {
        for (const std::string &p : w.programs) {
            if (seen.insert(p).second)
                st.workloads.push_back(Workload::fromPrograms({p}));
        }
    };
    for (const WorkloadGroup g : spec.groups) {
        for (const Workload &w : workloadsOf(g))
            addPrograms(w);
    }
    for (const Workload &w : spec.workloads)
        addPrograms(w);
    return st;
}

BaselineIpcMap
baselineIpcs(const CampaignOutcome &baselines)
{
    BaselineIpcMap ipcs;
    for (const CampaignCell &cell : baselines.cells) {
        RAT_ASSERT(cell.programs.size() == 1,
                   "baseline cell '%s' is not single-threaded",
                   cell.workload.c_str());
        const bool fresh =
            ipcs.emplace(cell.programs.front(),
                         cell.result.threads.at(0).ipc)
                .second;
        RAT_ASSERT(fresh, "two baseline cells for '%s'",
                   cell.workload.c_str());
    }
    return ipcs;
}

std::vector<std::vector<GroupMetrics>>
groupMetrics(const CampaignSpec &spec, const CampaignOutcome &outcome,
             const CampaignOutcome *baselines)
{
    RAT_ASSERT(spec.workloads.empty() && !spec.base.sampled &&
                   spec.raVariantAxis.size() <= 1 &&
                   spec.regsAxis.size() <= 1 && spec.robAxis.size() <= 1 &&
                   spec.measureAxis.size() <= 1 &&
                   spec.seedAxis.size() <= 1,
               "group metrics need whole groups, exact runs and "
               "single-valued axes");
    const BaselineIpcMap ipcs =
        baselines ? baselineIpcs(*baselines) : BaselineIpcMap{};

    // Grid order: techniques, then groups, then each group's workloads.
    std::vector<std::vector<GroupMetrics>> metrics;
    std::size_t next = 0;
    for (const TechniqueSpec &tech : spec.techniques) {
        metrics.emplace_back();
        for (const WorkloadGroup g : spec.groups) {
            GroupMetrics gm;
            gm.technique = tech.label;
            gm.group = g;
            std::vector<double> thr, fair, e;
            for (std::size_t i = 0; i < workloadsOf(g).size(); ++i) {
                const SimResult &r = outcome.cells.at(next++).result;
                thr.push_back(throughput(r));
                if (baselines)
                    fair.push_back(fairness(r, ipcs));
                e.push_back(ed2(r));
                gm.results.push_back(r);
            }
            gm.meanThroughput = mean(thr);
            gm.meanFairness = mean(fair);
            gm.meanEd2 = mean(e);
            metrics.back().push_back(std::move(gm));
        }
    }
    RAT_ASSERT(next == outcome.cells.size(),
               "outcome has %zu cells, the spec's groups %zu",
               outcome.cells.size(), next);
    return metrics;
}

CampaignOutcome
mergeSampledOutcome(const CampaignOutcome &outcome)
{
    CampaignOutcome merged;
    merged.cacheHits = outcome.cacheHits;
    merged.cacheMisses = outcome.cacheMisses;
    merged.simulated = outcome.simulated;
    merged.failedStores = outcome.failedStores;
    merged.cacheQuarantined = outcome.cacheQuarantined;
    merged.prewarmWalks = outcome.prewarmWalks;
    merged.prewarmRestores = outcome.prewarmRestores;

    // Per-sample cells of one workload coordinate are consecutive
    // (innermost implicit axis), so one forward scan groups them.
    const auto sameCoordinate = [](const CampaignCell &a,
                                   const CampaignCell &b) {
        return a.technique == b.technique && a.group == b.group &&
               a.workload == b.workload && a.raVariant == b.raVariant &&
               a.regs == b.regs && a.rob == b.rob &&
               a.measureCycles == b.measureCycles && a.seed == b.seed;
    };
    for (std::size_t i = 0; i < outcome.cells.size();) {
        const CampaignCell &cell = outcome.cells[i];
        if (cell.sampleIndex < 0) {
            merged.cells.push_back(cell);
            ++i;
            continue;
        }
        std::vector<SimResult> samples;
        bool allCached = true;
        std::size_t j = i;
        for (; j < outcome.cells.size() &&
               outcome.cells[j].sampleIndex >= 0 &&
               sameCoordinate(outcome.cells[j], cell);
             ++j) {
            samples.push_back(outcome.cells[j].result);
            allCached = allCached && outcome.cells[j].fromCache;
        }
        CampaignCell row = cell;
        row.sampleIndex = -1;
        row.config.sampleIndex = -1;
        row.key.clear(); // derived data; merged rows are never cached
        row.fromCache = allCached;
        row.result =
            mergeSampledResults(row.config, row.programs, samples);
        merged.cells.push_back(std::move(row));
        i = j;
    }
    return merged;
}

report::Json
campaignJson(const CampaignOutcome &outcome, const CampaignSpec &spec)
{
    report::Json j = report::Json::object();
    j["schema"] = report::Json("ratsim-campaign-v1");
    j["base"] = report::toJson(spec.base);

    report::Json cells = report::Json::array();
    for (const CampaignCell &cell : outcome.cells) {
        report::Json c = report::Json::object();
        c["technique"] = report::Json(cell.technique);
        if (!cell.group.empty())
            c["group"] = report::Json(cell.group);
        c["workload"] = report::Json(cell.workload);
        c["raVariant"] = report::Json(cell.raVariant);
        c["regs"] = report::Json(std::uint64_t{cell.regs});
        c["rob"] = report::Json(std::uint64_t{cell.rob});
        c["measureCycles"] = report::Json(cell.measureCycles);
        c["seed"] = report::Json(cell.seed);
        // Sampled coordinate / error metadata only on sampled cells —
        // exact campaigns serialize exactly as before.
        if (cell.sampleIndex >= 0)
            c["sampleIndex"] =
                report::Json(std::int64_t{cell.sampleIndex});
        if (cell.result.sampled.enabled && cell.result.sampled.merged) {
            c["sampled"] = report::Json(true);
            c["ipcError"] = report::Json(cell.result.sampled.ipcError);
            c["hmeanError"] =
                report::Json(cell.result.sampled.hmeanError);
        }
        c["metrics"] = report::resultMetricsJson(cell.result);
        c["result"] = report::toJson(cell.result);
        cells.push(std::move(c));
    }
    j["cells"] = std::move(cells);
    return j;
}

report::CsvTable
campaignCsv(const CampaignOutcome &outcome)
{
    // Error-bar columns appear only when the campaign has sampled
    // cells: exact-mode CSV stays byte-identical.
    bool anySampled = false;
    for (const CampaignCell &cell : outcome.cells)
        anySampled = anySampled || cell.result.sampled.enabled;

    report::CsvTable csv;
    std::vector<std::string> header{
        "technique", "group", "workload", "raVariant", "regs", "rob",
        "measureCycles", "seed", "throughput", "totalIpc", "ed2",
        "committedTotal", "cycles"};
    if (anySampled) {
        header.push_back("sampled");
        header.push_back("ipcError");
        header.push_back("hmeanError");
    }
    csv.setHeader(header);
    for (const CampaignCell &cell : outcome.cells) {
        report::CsvTable::Row row;
        row.add(cell.technique)
            .add(cell.group)
            .add(cell.workload)
            .add(cell.raVariant)
            .add(std::uint64_t{cell.regs})
            .add(std::uint64_t{cell.rob})
            .add(cell.measureCycles)
            .add(cell.seed)
            .add(throughput(cell.result))
            .add(cell.result.totalIpc())
            .add(ed2(cell.result))
            .add(cell.result.committedTotal())
            .add(cell.result.cycles);
        if (anySampled) {
            const SampledMeta &s = cell.result.sampled;
            row.add(std::uint64_t{s.enabled ? 1u : 0u})
                .add(s.enabled && s.merged ? s.ipcError : 0.0)
                .add(s.enabled && s.merged ? s.hmeanError : 0.0);
        }
        csv.addRow(row.take());
    }
    return csv;
}

} // namespace rat::sim
