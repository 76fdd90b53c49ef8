/**
 * @file
 * Declarative experiment campaigns: a spec of techniques x workloads x
 * configuration axes (renaming registers, ROB size, measured window,
 * seeds) expands into a job grid, runs through the shared worker pool,
 * and memoizes completed cells in the on-disk result cache
 * (report/result_cache.hh) so re-runs and extended sweeps only
 * simulate cells they have not seen before.
 *
 * Because a simulation is a pure function of (SimConfig, programs)
 * (DESIGN.md), a cached cell is bit-identical to re-running it: cold,
 * warm-cache and serial campaign runs all produce the same results.
 */

#ifndef RAT_SIM_CAMPAIGN_HH
#define RAT_SIM_CAMPAIGN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report/csv.hh"
#include "report/json.hh"
#include "report/result_cache.hh"
#include "runahead/variant.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "sim/workloads.hh"

namespace rat::sim {

/**
 * A declarative campaign. Each cell starts from configFor(base,
 * technique, threads); a set axis overrides its field, and an empty
 * one keeps that config's value. The grid is the full cross product
 *   techniques x (group workloads + explicit workloads)
 *              x ra-variants x regs x rob x measure x seeds.
 */
struct CampaignSpec {
    SimConfig base{};
    std::vector<TechniqueSpec> techniques; ///< required, >= 1
    std::vector<WorkloadGroup> groups;     ///< whole Table 2 groups
    std::vector<Workload> workloads;       ///< explicit extra workloads
    /**
     * Runahead efficiency variants. Applies to runahead techniques
     * (RaT, RaT+DCRA); other techniques collapse to a single cell —
     * the engine is inert for them, so variant cells would only be
     * bit-identical re-simulations under distinct cache keys.
     */
    std::vector<runahead::RaVariant> raVariantAxis;
    std::vector<unsigned> regsAxis;        ///< INT+FP renaming registers
    std::vector<unsigned> robAxis;         ///< shared ROB entries
    std::vector<Cycle> measureAxis;        ///< measured-window cycles
    std::vector<std::uint64_t> seedAxis;   ///< workload seeds
    std::string cacheDir;                  ///< empty = no result cache
    unsigned parallelism = 0;              ///< 0 = usableCpus()
};

/** One grid cell: coordinates, effective config, and (after running)
 * the simulation result. */
struct CampaignCell {
    std::string technique;
    std::string group;    ///< "" for an explicit workload
    std::string workload; ///< canonical comma-joined name
    std::string raVariant; ///< runahead variant of this cell
    unsigned regs = 0;
    unsigned rob = 0;
    Cycle measureCycles = 0;
    std::uint64_t seed = 0;
    /**
     * Sample coordinate of a sampled campaign (-1 = an exact cell or a
     * merged row). With `base.sampled` set, every workload cell expands
     * into one cell per representative window — the farm then
     * parallelizes *within* a workload, not just across the grid.
     */
    int sampleIndex = -1;
    SimConfig config; ///< fully resolved configuration of this cell
    std::vector<std::string> programs;
    std::string key;        ///< canonical cache-key string
    bool fromCache = false; ///< served from the on-disk cache
    SimResult result;
};

/** Everything a finished campaign produced. */
struct CampaignOutcome {
    std::vector<CampaignCell> cells; ///< deterministic grid order
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /**
     * Simulations that actually ran to completion — not merely
     * scheduled jobs, so a crashed or failed cell is never counted.
     */
    std::uint64_t simulated = 0;
    /** Completed cells whose cache store failed (cell re-simulates on
     * the next run instead of silently counting as cached). */
    std::uint64_t failedStores = 0;
    /** Damaged cache cells quarantined to *.bad while probing; each
     * cost this run exactly one re-simulation. */
    std::uint64_t cacheQuarantined = 0;
    /**
     * Exact-mode cells that walked their prewarm, and cells that
     * restored it from the post-prewarm checkpoint of an earlier cell
     * with the same prewarm identity. Host-side accounting: never part
     * of campaignJson.
     */
    std::uint64_t prewarmWalks = 0;
    std::uint64_t prewarmRestores = 0;
};

/**
 * A probed-but-not-executed campaign: cache hits are already filled
 * in, and `pending` maps each missing cache key to the grid indices
 * that need it (duplicates simulate once). This is the seam the farm
 * coordinator shares with the in-process runner.
 */
struct CampaignPlan {
    CampaignOutcome outcome;
    /** key -> cell indices, first index is the lead cell. */
    std::map<std::string, std::vector<std::size_t>> pending;
    /**
     * Lead cell index of every pending key, stably sorted by prewarm
     * identity (sim/checkpoint.hh) from key order: the cells that can
     * share one prewarm walk are adjacent, so campaignJobs cuts this
     * list into contiguous jobs that keep them together.
     */
    std::vector<std::size_t> leads;
};

/**
 * Expand the grid without running anything: every cell has its
 * coordinates, effective config and cache key, but no result. The
 * expansion order is deterministic (techniques, then workloads, then
 * axes) and defines the cell order of runCampaign.
 */
std::vector<CampaignCell> expandCampaign(const CampaignSpec &spec);

/**
 * Expand the grid and probe @p cache: hits land in their cells, misses
 * are grouped by key into the plan's pending map.
 */
CampaignPlan planCampaign(const CampaignSpec &spec,
                          const report::ResultCache &cache);

/**
 * Split @p plan's leads into jobs for @p workers workers, the threads of
 * runCampaign and the processes of runFarm alike. Exact-mode leads with
 * one prewarm identity form one job, which walks the prewarm once and
 * restores it for the rest. When there are fewer such runs than
 * workers, each is cut into ceil(workers / runs) contiguous jobs so
 * every worker still has one. Sampled leads are jobs of their own; they
 * share checkpoints through sim/sampled.hh.
 */
std::vector<std::vector<std::size_t>>
campaignJobs(const CampaignPlan &plan, unsigned workers);

/**
 * Copy every pending lead cell's result to its duplicate cells (cells
 * that share the lead's cache key).
 */
void fanOutDuplicates(CampaignOutcome &outcome,
                      const std::map<std::string,
                                     std::vector<std::size_t>> &pending);

/**
 * Expand and run a campaign: probe the result cache, simulate the
 * misses on the worker pool (duplicate cells simulate once, cells that
 * share a prewarm identity walk it once per job), store new cells back,
 * and return everything in grid order.
 */
CampaignOutcome runCampaign(const CampaignSpec &spec);

/**
 * The single-thread campaign behind Eq. 2 fairness: ICOUNT, one
 * 1-thread cell per distinct program of @p spec (in order of first
 * appearance), over the same base and axes. Its cells never write a
 * trace.
 */
CampaignSpec baselineSpec(const CampaignSpec &spec);

/**
 * Program -> single-thread IPC of a finished baselineSpec campaign
 * with single-valued axes (one cell per program).
 */
BaselineIpcMap baselineIpcs(const CampaignOutcome &baselines);

/**
 * Fold a finished campaign of whole Table 2 groups into group metrics
 * in grid order: [t][g] is spec.techniques[t] on spec.groups[g]. Mean
 * fairness needs @p baselines, the outcome of baselineSpec(@p spec);
 * without it the fairness means are 0. Refuses explicit workloads,
 * sampled runs and multi-valued axes, whose cells are not one run per
 * group workload.
 */
std::vector<std::vector<GroupMetrics>>
groupMetrics(const CampaignSpec &spec, const CampaignOutcome &outcome,
             const CampaignOutcome *baselines = nullptr);

/**
 * Collapse the per-sample cells of a sampled campaign into one merged
 * (whole-run extrapolated) cell per workload coordinate, in place of
 * the sample runs. A no-op for exact campaigns — byte-identical
 * output. Reporting (campaignJson/Csv) is done on the merged outcome;
 * merged rows are derived data and never cached.
 */
CampaignOutcome mergeSampledOutcome(const CampaignOutcome &outcome);

/**
 * Structured report of a finished campaign. Deliberately excludes
 * cache/parallelism metadata so cold, warm-cache and serial runs of
 * the same spec serialize byte-identically.
 */
report::Json campaignJson(const CampaignOutcome &outcome,
                          const CampaignSpec &spec);

/** Flat per-cell metric rows of a finished campaign. */
report::CsvTable campaignCsv(const CampaignOutcome &outcome);

} // namespace rat::sim

#endif // RAT_SIM_CAMPAIGN_HH
