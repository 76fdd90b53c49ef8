/**
 * @file
 * `ratsim verify`: the self-checking determinism audit. Runs one
 * configuration across the host-side mode grid — cycle-skip on/off,
 * for every runahead variant when the policy is runahead-capable —
 * plus a prewarm-restore leg that restores the post-prewarm state
 * from a checkpoint walked under a different scheduling policy,
 * through the campaign path (sim::restoreOrWalk). It is the one
 * save/restore leg: it round-trips every field a checkpoint carries,
 * the runahead engine's included. All legs must produce
 * byte-identical state-digest streams (see digest.hh for why that is
 * the right equivalence). A prewarm checkpoint that does not restore
 * is fatal.
 *
 * On divergence (or with a deliberately seeded `--mutate-at` fault)
 * the driver narrows the coarse digest window down to the exact first
 * divergent cycle by re-running both legs at window 1, then captures
 * a full state dump of each side at that boundary.
 */

#ifndef RAT_CHECK_VERIFY_HH
#define RAT_CHECK_VERIFY_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/simulator.hh"

namespace rat::check {

/** What `runVerify` should execute. */
struct VerifyOptions {
    /**
     * Base configuration; its cycleSkipping / digestWindow members
     * are overridden per leg.
     */
    sim::SimConfig base;
    /** Programs to co-run (the workload under audit). */
    std::vector<std::string> programs;
    /** Coarse digest window for the grid legs. */
    Cycle digestWindow = 256;
    /**
     * When non-zero, also run a fault-injected leg: a single-bit state
     * mutation at this cycle offset into the measured window. Verify
     * must detect it and bisect to the first divergent boundary.
     */
    Cycle mutateAt = 0;
};

/** One located divergence, bisected to the exact boundary. */
struct Divergence {
    std::string leg;     ///< which leg diverged from the reference
    std::string variant; ///< ra-variant of the leg pair
    /** First divergent coarse window boundary (absolute cycle). */
    Cycle window = kNoCycle;
    /** Exact first divergent boundary at window 1 (absolute cycle). */
    Cycle cycle = kNoCycle;
    std::string referenceDump; ///< reference-leg state at `cycle`
    std::string divergentDump; ///< diverging-leg state at `cycle`
};

/** Everything `runVerify` learned. */
struct VerifyOutcome {
    /** Mode-grid and restore legs all matched the reference. */
    bool gridConsistent = true;
    /** Legs compared against a reference (across all variants). */
    unsigned legsCompared = 0;
    /** Grid divergences (empty when gridConsistent). */
    std::vector<Divergence> divergences;
    /** The seeded-mutation leg diverged as it must (when requested). */
    bool mutationDetected = false;
    /** Bisection of the seeded mutation (when detected). */
    Divergence mutation;
};

/** Run the audit. Progress is reported via inform(). */
VerifyOutcome runVerify(const VerifyOptions &options);

/** Human-readable report of one divergence (multi-line). */
std::string formatDivergence(const Divergence &divergence);

} // namespace rat::check

#endif // RAT_CHECK_VERIFY_HH
