/**
 * @file
 * The vocabulary of the paper's evaluation grid: techniques (a label
 * plus a core-policy setting) and the figures' standard lineups, the
 * one rule that turns a technique into a run config, per-group
 * aggregates, and the worker pool campaigns (sim/campaign.hh) run on.
 */

#ifndef RAT_SIM_EXPERIMENT_HH
#define RAT_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "sim/workloads.hh"

namespace rat::sim {

/** One evaluated technique: a label plus the core-policy setting. */
struct TechniqueSpec {
    std::string label;
    core::PolicyKind policy = core::PolicyKind::Icount;
    core::RatConfig rat{};
};

/**
 * The technique that runs @p kind with the default RaT config,
 * labelled with the kind's canonical name (policy::policyKindName).
 */
TechniqueSpec techniqueOf(core::PolicyKind kind);

/**
 * Apply @p tech to a copy of @p base: its policy, its whole RaT
 * config, and @p num_threads hardware threads. Every campaign cell
 * starts from this config.
 */
SimConfig configFor(const SimConfig &base, const TechniqueSpec &tech,
                    unsigned num_threads);

/** Aggregated metrics of a technique over one workload group. */
struct GroupMetrics {
    std::string technique;
    WorkloadGroup group{};
    double meanThroughput = 0.0;
    double meanFairness = 0.0;
    double meanEd2 = 0.0;
    std::vector<SimResult> results; ///< one per workload in the group
};

/**
 * Run @p jobs callables on up to @p workers threads (library-level
 * helper; each job must be independent).
 */
void runParallel(const std::vector<std::function<void()>> &jobs,
                 unsigned workers);

} // namespace rat::sim

#endif // RAT_SIM_EXPERIMENT_HH
