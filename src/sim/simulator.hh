/**
 * @file
 * Top-level simulator: wires trace generators, the memory hierarchy, a
 * scheduling policy and the SMT core together, runs warm-up plus a
 * measured window, and reports per-thread results.
 *
 * Measurement methodology: all threads execute continuously for the
 * entire measured window (synthetic traces never run dry), so every
 * thread is fully represented in the measurement — the property the
 * FAME methodology [19] establishes for finite traces (see DESIGN.md).
 */

#ifndef RAT_SIM_SIMULATOR_HH
#define RAT_SIM_SIMULATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/policy_iface.hh"
#include "core/smt_core.hh"
#include "core/stats.hh"
#include "mem/hierarchy.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "runahead/engine.hh"
#include "trace/generator.hh"

namespace rat::sim {

/** Full simulation configuration. */
struct SimConfig {
    core::CoreConfig core{};
    mem::MemConfig mem{};
    /**
     * Functional warm-up instructions per thread (zero-latency cache /
     * predictor training before timing starts; see SmtCore::prewarm).
     */
    InstSeq prewarmInsts = 1000000;
    /** Timed cycles simulated before statistics are reset. */
    Cycle warmupCycles = 20000;
    /** Cycles of the measured window. */
    Cycle measureCycles = 100000;
    /** Workload seed (varies trace instances). */
    std::uint64_t seed = 1;
    /**
     * Telemetry sampling window in cycles; 0 = off. Non-zero windows
     * add a `telemetry` block to the SimResult, so this field *is*
     * serialized (only when non-zero — default configs keep their
     * cache keys and golden serializations unchanged).
     */
    Cycle sampleWindow = 0;
    /**
     * State-digest window in cycles; 0 = off. Non-zero windows add a
     * `digest` block to the SimResult, so — exactly like sampleWindow —
     * this field is serialized only when non-zero (default configs keep
     * their cache keys and golden serializations unchanged). This is
     * what `ratsim verify` compares across the host-side mode grid.
     */
    Cycle digestWindow = 0;

    // ---- sampled simulation (SimPoint-style; sim/sampled.hh) -------
    // Sampled runs produce *estimates*, not the exact-mode numbers, so
    // every field below is part of the serialized configuration — but
    // (like sampleWindow/digestWindow) only when `sampled` is set, so
    // exact-mode cache keys and golden serializations are unchanged.
    /** Enable phase-sampled simulation (exact mode when false). */
    bool sampled = false;
    /** Phases (k-means clusters / representative windows) requested. */
    unsigned samplePhases = 4;
    /** Phase-profiling window, instructions per thread. */
    InstSeq phaseWindow = 2048;
    /** Windows profiled from the post-prewarm point. */
    unsigned phaseSpanWindows = 64;
    /** Timed warmup cycles per sample (pipeline/MSHR fill-in). */
    Cycle sampleWarmupCycles = 1000;
    /** Measured cycles per sample. */
    Cycle sampleMeasureCycles = 4000;
    /**
     * Which representative to simulate: -1 = all samples merged into
     * one extrapolated result (the CLI meaning of `--sampled`); >= 0 =
     * exactly one sample cell (how campaign/farm schedule the samples
     * of one workload as independent, independently cached cells).
     */
    int sampleIndex = -1;

    // ---- host-side observability; cannot affect results ------------
    // Like CoreConfig::cycleSkipping, the tracer settings are
    // deliberately NOT part of the serialized configuration: tracing
    // only observes the simulation (pinned by the TraceSmoke
    // byte-identity test), so it must not change result-cache keys.
    /** Chrome trace-event JSON output path ("" = tracing off). */
    std::string traceOut;
    /** obs::Category mask of event classes to record. */
    unsigned traceCategories = obs::kCatAll;
    /** Events retained per trace track (ring capacity). */
    std::size_t traceBufferCapacity = obs::Tracer::kDefaultRingCapacity;

    // ---- host-side verify hooks; NOT serialized --------------------
    /**
     * Fault injection for `ratsim verify --mutate-at`: flip one bit of
     * serialized state at the first measured-window tick at or after
     * this cycle offset (relative to measurement start). 0 = off.
     */
    Cycle mutateAtCycle = 0;
    /**
     * Capture a full state dump at this absolute digest boundary
     * (the verify bisector's final pass). 0 = off.
     */
    Cycle captureStateAtCycle = 0;
};

/** Measured results for one hardware thread. */
struct ThreadResult {
    std::string program;
    core::ThreadStats core;
    mem::ThreadMemStats mem;
    double ipc = 0.0;
    /** Demand L2 misses per kilo committed instruction. */
    double l2Mpki = 0.0;
};

/**
 * Sampling metadata carried by a SimResult (sim/sampled.hh). For a
 * merged result, `ipcError`/`hmeanError` are the weighted relative
 * dispersions of the per-sample metrics — the error-bar estimate the
 * report layer surfaces next to every extrapolated number.
 */
struct SampledMeta {
    /** True when the result came from sampled (not exact) simulation. */
    bool enabled = false;
    /** True for a whole-run extrapolation; false for one sample cell. */
    bool merged = false;
    /** Sample index of a single-sample cell (-1 when merged). */
    int sampleIndex = -1;
    /** Representative window of a single-sample cell. */
    unsigned windowIndex = 0;
    /** Cluster weight (windows represented) of a single-sample cell. */
    std::uint64_t weight = 0;
    /** Phases actually found (merged results). */
    unsigned phases = 0;
    /** Windows profiled (merged results; == sum of sample weights). */
    std::uint64_t totalWindows = 0;
    /** Weighted relative dispersion of per-sample total IPC. */
    double ipcError = 0.0;
    /** Weighted relative dispersion of per-sample hmean IPC. */
    double hmeanError = 0.0;
};

/** Results of one simulation run. */
struct SimResult {
    Cycle cycles = 0;
    std::vector<ThreadResult> threads;
    /**
     * Windowed time-series + latency histograms, populated when
     * SimConfig::sampleWindow is non-zero. Serialized (and cached)
     * only when enabled, so default results are byte-identical to
     * pre-telemetry ones.
     */
    obs::TelemetryResult telemetry;
    /**
     * Engine-level runahead counters over the measured window.
     * Deliberately NOT serialized in toJson(SimResult) — goldens and
     * cache cells stay unchanged; `ratsim report` surfaces it as a
     * separate `engine` block on always-fresh runs.
     */
    runahead::EngineStats engine;
    /**
     * Per-window state digests, populated when SimConfig::digestWindow
     * is non-zero. Serialized only when enabled (window != 0).
     */
    obs::DigestTrack digest;
    /**
     * Full state dump captured at SimConfig::captureStateAtCycle (the
     * verify bisector's final pass). Host-side; never serialized.
     */
    std::string stateDump;
    /**
     * Sampling metadata, populated when SimConfig::sampled is set.
     * Serialized only when enabled — exact-mode results stay
     * byte-identical to pre-sampling ones.
     */
    SampledMeta sampled;

    /** Sum of per-thread IPC. */
    double totalIpc() const;
    /** Paper Eq. 1: average of per-thread IPC. */
    double throughputEq1() const;
    /** Total committed instructions. */
    std::uint64_t committedTotal() const;
    /** Total executed (renamed) instructions — the ED^2 energy proxy. */
    std::uint64_t executedTotal() const;
};

/**
 * Wall-clock seconds spent in each phase of one Simulator::run (filled
 * on request; the perf_simspeed bench separates the cycle-accurate
 * phases from the functional prewarm walk), plus the per-phase
 * quiescence fast-forward counters (zero with cycle skipping off).
 * Skipped cycles are counted inside their phase: `SmtCore::run` clamps
 * every fast-forward to the end of the requested window, so a skip can
 * never cross the warmup→measure resetStats() boundary.
 */
struct PhaseTiming {
    double prewarmSeconds = 0.0;
    double warmupSeconds = 0.0;
    double measureSeconds = 0.0;
    /** Warmup-phase cycles elided by cycle skipping. */
    std::uint64_t warmupSkippedCycles = 0;
    /** Measure-phase cycles elided by cycle skipping. */
    std::uint64_t measureSkippedCycles = 0;
    /** Fast-forward spans taken in the measured window. */
    std::uint64_t measureSkipSpans = 0;
};

/**
 * One simulation instance: owns every component. Instances are fully
 * independent, so parameter sweeps may run many in parallel threads.
 */
class Simulator
{
  public:
    /**
     * @param config   Simulation configuration. core.numThreads is set
     *                 from programs.size().
     * @param programs SPEC2000 profile names, one per hardware thread.
     */
    Simulator(SimConfig config, std::vector<std::string> programs);
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Run warm-up + measured window and return the results. When
     * @p timing is non-null, per-phase wall-clock seconds are recorded.
     */
    SimResult run(PhaseTiming *timing = nullptr);

    /** The core (tests and detailed inspection). */
    core::SmtCore &smtCore() { return *core_; }
    /** The memory hierarchy. */
    mem::MemoryHierarchy &memory() { return *mem_; }
    /** Effective configuration. */
    const SimConfig &config() const { return config_; }

  private:
    SimConfig config_;
    std::vector<std::string> programs_;
    std::unique_ptr<mem::MemoryHierarchy> mem_;
    std::vector<std::unique_ptr<trace::TraceGenerator>> gens_;
    std::unique_ptr<core::SchedulingPolicy> policy_;
    std::unique_ptr<core::SmtCore> core_;
};

} // namespace rat::sim

#endif // RAT_SIM_SIMULATOR_HH
