/**
 * @file
 * Sampled simulation driver: phase plans, checkpoint reuse, per-sample
 * execution and weighted whole-run extrapolation.
 *
 * `--sampled` replaces one long measured window with a handful of short
 * detailed samples, one per program phase. The pipeline is:
 *
 *   1. `samplePlanFor` profiles the post-prewarm span of the workload
 *      with the BBV phase profiler (trace/phase.hh) and memoizes the
 *      result per workload identity — the plan is a pure function of
 *      (programs, seed, prewarm position, phase parameters), so the 9
 *      techniques of a policy sweep share one profiling pass.
 *   2. For every representative window, the post-prewarm architectural
 *      state is materialized once by an incremental functional walk and
 *      captured with the checkpoint codec (sim/checkpoint.hh). Blobs are
 *      kept in a process-wide registry and, when a checkpoint directory
 *      is given (derived from the result-cache directory), persisted so
 *      farm workers and later invocations skip the walk entirely. The
 *      files are named by file key, with the codec's magic as their
 *      extension.
 *   3. Each sample restores its checkpoint through `restoreOrWalk`
 *      (falling back to a fresh walk — bit-identical by construction —
 *      if the blob is missing or refused; the walk's blob then replaces
 *      the refused one in the registry and the directory), runs
 *      `sampleWarmupCycles` of detailed warmup, then measures
 *      `sampleMeasureCycles`.
 *   4. Extrapolation: every counter (each entry of the ThreadStats,
 *      ThreadMemStats and EngineStats counter tables) is converted to a
 *      per-cycle rate, averaged across samples weighted by cluster
 *      population, and scaled back to the configured full measured
 *      window. The weighted relative dispersion of the per-sample IPC
 *      metrics is reported as the error estimate.
 *
 * Determinism: every step is a pure function of the configuration, so
 * sampled results are cacheable under the same key discipline as exact
 * ones (the sampled fields are part of the serialized SimConfig).
 */

#ifndef RAT_SIM_SAMPLED_HH
#define RAT_SIM_SAMPLED_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/phase.hh"

namespace rat::sim {

/**
 * The (memoized) phase plan a sampled configuration runs. Valid until
 * process exit; the reference is to an immutable registry entry.
 */
const trace::PhaseProfile &
samplePlanFor(const SimConfig &cfg, const std::vector<std::string> &programs);

/**
 * Checkpoint directory derived from a result-cache directory ("" when
 * caching is off — checkpoints then live only in process memory).
 */
std::string checkpointDirFor(const std::string &cacheDir);

/**
 * Run one simulation cell: exact mode dispatches straight to
 * Simulator::run; sampled mode runs one sample (cfg.sampleIndex >= 0)
 * or all samples merged into a whole-run extrapolation (-1).
 */
SimResult simulateCell(const SimConfig &cfg,
                       const std::vector<std::string> &programs,
                       const std::string &ckptDir = "");

/**
 * Merge per-sample results (each carrying its sample index and weight
 * in `result.sampled`) into one extrapolated whole-run result for
 * @p cfg by trajectory reconstruction: the profiled windows are
 * traversed in order, each charged an estimated cycle cost of
 * numThreads * phaseWindow / (its phase's measured aggregate IPC),
 * until the configured warmup + measured window is consumed. Each
 * phase's rates are then scaled by the cycles the trajectory spent in
 * it — so the effective span automatically matches what the full run
 * would actually execute, per policy. Used by simulateCell and by
 * campaign/farm, which schedule the samples of one workload as
 * independent cells and merge afterwards.
 */
SimResult mergeSampledResults(const SimConfig &cfg,
                              const std::vector<std::string> &programs,
                              const std::vector<SimResult> &samples);

} // namespace rat::sim

#endif // RAT_SIM_SAMPLED_HH
