/**
 * @file
 * SMT core configuration. Defaults reproduce the paper's Table 1:
 * 10-stage, 8-wide, 512-entry shared ROB, 64-entry issue queues,
 * 320 INT + 320 FP rename registers, 6/3/4 INT/FP/LdSt units.
 */

#ifndef RAT_CORE_CONFIG_HH
#define RAT_CORE_CONFIG_HH

#include "branch/perceptron.hh"
#include "common/names.hh"
#include "common/types.hh"
#include "runahead/variant.hh"

namespace rat::core {

/**
 * How aggressively the self-checking auditor (src/check/auditor.hh)
 * runs at tick boundaries. `Off` costs one predicted branch per tick;
 * `Sampled` audits every `checkInterval` cycles (cheap enough for
 * sweeps); `Full` audits every tick (tests / bug hunts).
 */
enum class CheckLevel : std::uint8_t {
    Off,
    Sampled,
    Full,
};

/** Every check level, in declaration order, as `--check-level` spells it. */
inline constexpr NameRow<CheckLevel> kCheckLevels[] = {
    {CheckLevel::Off, "off"},
    {CheckLevel::Sampled, "sampled"},
    {CheckLevel::Full, "full"},
};
static_assert(coversInOrder(kCheckLevels, CheckLevel::Full));

/** Which long-latency-load handling scheme the core runs. */
enum class PolicyKind : std::uint8_t {
    RoundRobin,   ///< round-robin fetch, no long-latency handling
    Icount,       ///< ICOUNT fetch priority only (the baseline)
    Stall,        ///< ICOUNT + fetch-stall on L2 miss [17]
    Flush,        ///< ICOUNT + flush-and-stall on L2 miss [17]
    Dcra,         ///< dynamic resource caps [1]
    HillClimbing, ///< learning-based partitioning [3]
    Rat,          ///< Runahead Threads (this paper)
    /**
     * Runahead Threads combined with DCRA resource caps — the hybrid
     * the paper names as future work in Section 5.2 ("it is possible
     * to incorporate an additional resource control mechanism").
     */
    RatDcra,
    /**
     * MLP-aware fetch policy (Eyerman & Eeckhout [15]) — the related
     * work the paper contrasts in Section 2: exposes a *bounded*
     * window of memory-level parallelism after a miss, then stalls.
     */
    MlpAware,
};

/** True when the policy kind runs the runahead mechanism in the core. */
constexpr bool
runaheadEnabled(PolicyKind kind)
{
    return kind == PolicyKind::Rat || kind == PolicyKind::RatDcra;
}

/** Runahead Threads feature flags (Section 3.3 + Fig. 4 ablations). */
struct RatConfig {
    /**
     * Episode policy the RunaheadEngine runs (src/runahead/): `classic`
     * is the paper's mechanism, `capped` throttles episode length,
     * `useless-filter` suppresses loads with a history of useless
     * episodes. Selectable at runtime via `--ra-variant`.
     */
    runahead::RaVariant variant = runahead::RaVariant::Classic;
    /** `capped` variant: max cycles an episode may run past entry. */
    unsigned cappedMaxCycles = 128;
    /**
     * `useless-filter` variant: consecutive zero-prefetch full episodes
     * of a PC region before its loads switch to fetch-gated DrainOnly
     * episodes (a useful full episode resets its region to 0). The
     * 2-bit counters saturate at 3, so the value is clamped to [1, 3].
     */
    unsigned uselessFilterThreshold = 3;
    /**
     * `useless-filter` variant: every Nth suppressed (distinct) load of
     * a filtered PC region runs a full probe episode anyway, so a
     * region whose loads become prefetchable again recovers quickly.
     * Episode usefulness is near-random on the synthetic traces, so the
     * dense default (every 2nd) is what keeps the filter's IPC cost
     * within ~1% — see DESIGN.md. 0 disables re-probing.
     */
    unsigned uselessFilterReprobe = 2;
    /**
     * Drop FP compute instructions during runahead so they use no FP
     * resources (Section 3.3, "Floating-point resources"). FP loads and
     * stores still execute as prefetches through the integer pipeline.
     */
    bool dropFpInRunahead = true;
    /**
     * Model the runahead cache of Mutlu et al. for store-to-load INV
     * communication past pseudo-retirement. The paper measured it
     * insignificant and omits it; off by default (Section 3.3).
     */
    bool useRunaheadCache = false;
    /** Runahead-cache line capacity per thread (when enabled). */
    unsigned runaheadCacheLines = 64;
    /**
     * Fig. 4 ablation "RaT without prefetching": runahead loads that miss
     * L1 are invalidated without accessing L2/memory, and loads observed
     * to be L2 misses during such a runahead episode do not re-trigger
     * runahead after recovery (keeps episode lengths identical).
     */
    bool disablePrefetch = false;
    /**
     * Fig. 4 ablation "resource availability only": a thread entering
     * runahead stops fetching; already-fetched instructions drain as
     * runahead instructions and release their resources early.
     */
    bool noFetchInRunahead = false;
};

/** Full core configuration (defaults = Table 1). */
struct CoreConfig {
    unsigned numThreads = 2;

    // Widths and depth.
    unsigned fetchWidth = 8;
    unsigned fetchThreads = 2; ///< ICOUNT.2.8
    unsigned renameWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    /** Cycles between fetch and rename (models the 10-stage depth). */
    unsigned frontendDelay = 5;

    // Shared structures.
    unsigned robEntries = 512;
    unsigned intIqEntries = 64;
    unsigned fpIqEntries = 64;
    unsigned lsIqEntries = 64;
    /** Load/store queue entries (address/forwarding tracking). */
    unsigned lsqEntries = 64;
    /** INT / FP rename (renaming) registers. */
    unsigned intRegs = 320;
    unsigned fpRegs = 320;

    // Functional units.
    unsigned intUnits = 6;
    unsigned fpUnits = 3;
    unsigned memUnits = 4;

    // Per-thread front end.
    unsigned fetchQueueEntries = 32;
    /** Redirect bubble when a taken branch misses in the BTB. */
    unsigned btbMissPenalty = 2;
    /** Extra redirect cycles after a mispredicted branch resolves. */
    unsigned mispredictRedirect = 2;
    /** Sequential I-stream prefetch depth (stream-buffer lines). */
    unsigned ifetchPrefetchLines = 3;

    // Long-latency handling.
    PolicyKind policy = PolicyKind::Icount;
    RatConfig rat{};

    /**
     * Quiescence-aware cycle skipping: when a tick ends provably idle
     * (no event processed, nothing issuable/renameable/fetchable/
     * committable), `SmtCore::run` fast-forwards the clock to the next
     * event instead of ticking through the dead cycles (DESIGN.md,
     * "Cycle skipping & quiescence invariants"). Bit-identical by
     * construction — skipped cycles are exactly the ticks that would
     * have changed nothing, and per-cycle accumulators are integrated
     * analytically over the span. A host-side implementation choice:
     * deliberately NOT part of the serialized configuration (it cannot
     * affect results or cache keys).
     */
    bool cycleSkipping = true;

    /**
     * Runtime invariant audits (src/check/): `Off` by default. Like
     * `cycleSkipping` this is a host-side observation knob — audits
     * either pass (no state change) or abort the run, so it is
     * deliberately NOT part of the serialized configuration (it cannot
     * affect results or cache keys).
     */
    CheckLevel checkLevel = CheckLevel::Off;
    /** Cycles between audits at CheckLevel::Sampled. */
    unsigned checkInterval = 64;

    branch::PerceptronConfig predictor{};
};

} // namespace rat::core

#endif // RAT_CORE_CONFIG_HH
