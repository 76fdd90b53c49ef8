/**
 * @file
 * Multi-process campaign farm: shards a campaign's pending grid cells
 * across worker *processes* (fork/exec of the ratsim binary in
 * `--farm-worker` mode) and streams completed cells back to the
 * coordinator over pipes as length-prefixed JSON (report/wire.hh).
 *
 * Execution model:
 *  - The coordinator expands the grid and probes the shared on-disk
 *    ResultCache; only missing cells become jobs (so a re-run after
 *    any crash — coordinator or worker, kill -9 included — resumes
 *    from whatever earlier runs already landed in the cache).
 *  - Jobs are partitioned into shards; every worker pulls jobs one at
 *    a time from its own shards and, once those drain, steals from the
 *    largest remaining shard, so straggler shards drain onto idle
 *    workers.
 *  - Each worker simulates a cell, lands it in the shared cache with
 *    a crash-safe atomic store, and streams the result frame back.
 *    Jobs are identity-ordered (CampaignPlan::leads), so a worker
 *    keeps the post-prewarm checkpoint of the last identity it walked
 *    and restores it for the following cells of that identity; the
 *    reply's `prewarm` field says which happened.
 *  - A worker death mid-job is detected as EOF on its pipe: the
 *    in-flight job is requeued onto the surviving workers. Only when
 *    every worker is gone does the farm give up — with all completed
 *    cells already durable in the cache.
 *
 * The merged report of a completed farm run is byte-identical to a
 * single-process `runCampaign` of the same spec: both produce the
 * same grid order and the result JSON round-trips exactly
 * (report/json.hh).
 */

#ifndef RAT_SIM_FARM_HH
#define RAT_SIM_FARM_HH

#include <cstdint>
#include <string>

#include "sim/campaign.hh"

namespace rat::sim {

/** Farm-specific knobs on top of a CampaignSpec. */
struct FarmOptions {
    /** Worker processes; 0 = hardware concurrency. Clamped to the
     * number of pending jobs. */
    unsigned workers = 0;
    /** Job shards; 0 = auto (4x workers). Clamped to [1, jobs]. */
    unsigned shards = 0;
    /**
     * Path of the binary to exec with `--farm-worker`. Empty = this
     * process's own executable (/proc/self/exe).
     */
    std::string workerBinary;
    /**
     * Live progress line on stderr: cells done/total, steals, deaths
     * and an ETA, refreshed as workers report in. Off by default so
     * scripted captures of stderr stay stable.
     */
    bool progress = false;
    /**
     * Hung-worker watchdog: a worker with a job in flight that has
     * produced no frame for this many seconds is presumed wedged,
     * SIGKILLed and reaped, and its job requeued (counted in
     * FarmOutcome::workersTimedOut). 0 disables the watchdog.
     */
    unsigned jobTimeoutSec = 0;
    /**
     * Per-cell retry budget: a cell whose worker dies while holding it
     * is requeued up to this many times; one more death quarantines
     * the cell (FarmOutcome::quarantinedCells) instead of letting a
     * poisoned job murder worker after worker until the farm starves.
     */
    unsigned maxRetries = 2;
    /**
     * Respawn dead workers (with exponential backoff per slot) while
     * undone work remains, so a crash is lost capacity for
     * milliseconds instead of the rest of the campaign. A crash-loop
     * breaker stops respawning when repeated respawns make no
     * progress.
     */
    bool respawn = true;
};

/** A finished (or aborted) farm run. */
struct FarmOutcome {
    CampaignOutcome campaign;
    unsigned workersSpawned = 0;
    unsigned shardCount = 0;
    /** Workers that died before draining their work (EOF mid-shard,
     * abnormal exit, or exit on a signal). */
    std::uint64_t workerDeaths = 0;
    /** Jobs requeued from dead workers onto survivors. */
    std::uint64_t jobsRequeued = 0;
    /** Jobs a worker pulled from another worker's shard. */
    std::uint64_t jobsStolen = 0;
    /** Cells whose simulation failed inside a worker (reported as an
     * error frame; not retried). */
    std::uint64_t failedCells = 0;
    /** Dead workers respawned into their slot. */
    std::uint64_t workersRespawned = 0;
    /** Workers SIGKILLed by the --job-timeout watchdog. */
    std::uint64_t workersTimedOut = 0;
    /** Cache keys of cells quarantined after exhausting their retry
     * budget (each killed its worker --max-retries + 1 times). */
    std::vector<std::string> quarantinedCells;
    /** True when no worker could be spawned and the campaign ran
     * in-process instead (degraded but complete). */
    bool inProcessFallback = false;
    /** True when every grid cell has a result. */
    bool completed = false;
    /** Diagnostic when !completed (or failedCells > 0). */
    std::string error;
};

/**
 * Run @p spec as a sharded multi-process farm. Requires fork/exec;
 * the campaign inside the returned outcome is in grid order, exactly
 * like runCampaign's.
 *
 * Workers run every cell with default host-side settings: a job
 * carries the cell's serialized config, which holds the model fields
 * only, so host-only SimConfig fields of @p spec (such as
 * `core.cycleSkipping`, `core.checkLevel` or `traceOut`) never reach
 * them.
 */
FarmOutcome runFarm(const CampaignSpec &spec, const FarmOptions &options);

/**
 * Worker-process entry point (`ratsim --farm-worker`): reads job
 * frames from stdin, simulates each cell, stores it into @p cache_dir
 * (when non-empty) and writes a result frame per cell, preceded by a
 * typed progress frame that doubles as a liveness heartbeat. Log lines
 * carry a `[w<worker_id>]` prefix so interleaved worker stderr stays
 * attributable; verbosity follows the RATSIM_LOG_LEVEL environment
 * variable (inherited across the coordinator's fork/exec). Returns the
 * process exit code. @p kill_after is a test hook: raise SIGKILL after
 * that many completed cells (0 = never), simulating a mid-campaign
 * kill -9 deterministically.
 */
int farmWorkerMain(const std::string &cache_dir, unsigned worker_id,
                   std::uint64_t kill_after);

} // namespace rat::sim

#endif // RAT_SIM_FARM_HH
