#include "check/verify.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "runahead/variant.hh"
#include "sim/checkpoint.hh"

namespace rat::check {

namespace {

/** Host-side mode settings of one leg. */
struct LegSpec {
    const char *name;
    bool cycleSkip;
    /** Restore the prewarm from a walk under another policy. */
    bool prewarmRestore = false;
};

/**
 * The post-prewarm checkpoint of @p cfg, walked by a Simulator under a
 * different scheduling policy: the state a campaign cell restores was
 * walked by whichever cell of its identity ran first.
 */
sim::PrewarmCheckpoint
walkUnderAnotherPolicy(const sim::SimConfig &cfg,
                       const std::vector<std::string> &programs)
{
    sim::SimConfig walk = cfg;
    walk.core.policy = cfg.core.policy == core::PolicyKind::Icount
                           ? core::PolicyKind::RoundRobin
                           : core::PolicyKind::Icount;
    sim::Simulator walker(walk, programs);
    walker.smtCore().prewarm(walk.prewarmInsts);
    return {sim::prewarmIdentity(walk, programs),
            sim::CheckpointCodec::encode(walker)};
}

/**
 * Run one leg: the base config with this leg's host modes, a digest
 * stream, and (optionally) a seeded mutation or a state capture.
 */
sim::SimResult
runLeg(const VerifyOptions &options, runahead::RaVariant variant,
       const LegSpec &leg, Cycle digest_window, Cycle mutate_at,
       Cycle capture_at)
{
    sim::SimConfig cfg = options.base;
    cfg.core.rat.variant = variant;
    cfg.core.cycleSkipping = leg.cycleSkip;
    cfg.digestWindow = digest_window;
    cfg.mutateAtCycle = mutate_at;
    cfg.captureStateAtCycle = capture_at;
    if (!leg.prewarmRestore) {
        sim::Simulator simulator(cfg, options.programs);
        return simulator.run();
    }
    // The campaign path itself; a walk instead of a restore would hide
    // exactly what this leg is for.
    sim::PrewarmCheckpoint ckpt =
        walkUnderAnotherPolicy(cfg, options.programs);
    bool restored = false;
    sim::SimResult result =
        sim::restoreOrWalk(cfg, options.programs, ckpt, restored);
    if (!restored)
        fatal("verify: %s leg (ra-variant %s): the post-prewarm "
              "checkpoint was not restored",
              leg.name, runahead::raVariantName(variant));
    return result;
}

/**
 * First cycle at which two digest streams disagree (kNoCycle when
 * identical). A length mismatch counts as divergence at the first
 * missing boundary — it cannot happen between equal-length measured
 * windows, but a truncated stream must never read as "consistent".
 */
Cycle
firstDivergence(const obs::DigestTrack &ref, const obs::DigestTrack &leg)
{
    const std::size_t n = std::min(ref.samples.size(),
                                   leg.samples.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!(ref.samples[i] == leg.samples[i]))
            return std::min(ref.samples[i].cycle, leg.samples[i].cycle);
    }
    if (ref.samples.size() != leg.samples.size()) {
        const auto &longer =
            ref.samples.size() > n ? ref.samples : leg.samples;
        return longer[n].cycle;
    }
    return kNoCycle;
}

/**
 * Narrow a coarse divergence down to the exact boundary: re-run both
 * legs at digest window 1 (every boundary between the coarse windows
 * is now sampled), locate the first mismatch, then re-run once more
 * capturing a full state dump of each side at that cycle.
 */
Divergence
bisect(const VerifyOptions &options, runahead::RaVariant variant,
       const LegSpec &reference, const LegSpec &leg, Cycle leg_mutate,
       Cycle coarse_cycle)
{
    Divergence d;
    d.leg = leg.name;
    d.variant = runahead::raVariantName(variant);
    d.window = coarse_cycle;

    inform("verify: narrowing %s/%s divergence at window boundary %llu",
           d.variant.c_str(), leg.name,
           static_cast<unsigned long long>(coarse_cycle));
    const sim::SimResult fine_ref =
        runLeg(options, variant, reference, 1, 0, 0);
    const sim::SimResult fine_leg =
        runLeg(options, variant, leg, 1, leg_mutate, 0);
    d.cycle = firstDivergence(fine_ref.digest, fine_leg.digest);
    if (d.cycle == kNoCycle) {
        // Divergent at the coarse window but not at window 1: should
        // be impossible (window 1 samples a superset of boundaries).
        // Report the coarse boundary rather than pretending success.
        d.cycle = coarse_cycle;
        return d;
    }

    const sim::SimResult dump_ref =
        runLeg(options, variant, reference, 1, 0, d.cycle);
    const sim::SimResult dump_leg =
        runLeg(options, variant, leg, 1, leg_mutate, d.cycle);
    d.referenceDump = dump_ref.stateDump;
    d.divergentDump = dump_leg.stateDump;
    return d;
}

} // namespace

VerifyOutcome
runVerify(const VerifyOptions &options)
{
    // The reference leg is the production default: cycle skipping on.
    // Every other leg must match it.
    const LegSpec reference{"skip+event", true};
    const LegSpec grid[] = {
        {"noskip+event", false},
        {"prewarm-restore", true, true},
    };

    std::vector<runahead::RaVariant> variants;
    if (core::runaheadEnabled(options.base.core.policy)) {
        for (const auto &row : runahead::kRaVariants)
            variants.push_back(row.value);
    } else {
        variants = {options.base.core.rat.variant};
    }

    VerifyOutcome outcome;
    for (const runahead::RaVariant variant : variants) {
        const char *vname = runahead::raVariantName(variant);
        inform("verify: variant %s: reference leg (%s)", vname,
               reference.name);
        const sim::SimResult ref = runLeg(options, variant, reference,
                                          options.digestWindow, 0, 0);

        for (const LegSpec &leg : grid) {
            inform("verify: variant %s: leg %s", vname, leg.name);
            const sim::SimResult res = runLeg(
                options, variant, leg, options.digestWindow, 0, 0);
            ++outcome.legsCompared;
            const Cycle at = firstDivergence(ref.digest, res.digest);
            if (at == kNoCycle)
                continue;
            outcome.gridConsistent = false;
            outcome.divergences.push_back(bisect(
                options, variant, reference, leg, 0, at));
        }

        // The fault-injection leg runs only for the first variant: it
        // audits the digest's sensitivity, not the variant grid.
        if (options.mutateAt && variant == variants.front()) {
            const LegSpec mutated{"mutated", true};
            inform("verify: variant %s: seeded-mutation leg "
                   "(mutate-at %llu)",
                   vname,
                   static_cast<unsigned long long>(options.mutateAt));
            const sim::SimResult res =
                runLeg(options, variant, mutated, options.digestWindow,
                       options.mutateAt, 0);
            ++outcome.legsCompared;
            const Cycle at = firstDivergence(ref.digest, res.digest);
            if (at != kNoCycle) {
                outcome.mutationDetected = true;
                outcome.mutation =
                    bisect(options, variant, reference, mutated,
                           options.mutateAt, at);
            }
        }
    }
    return outcome;
}

std::string
formatDivergence(const Divergence &divergence)
{
    std::ostringstream os;
    os << "leg " << divergence.leg << " (ra-variant "
       << divergence.variant << ") diverges from skip+event\n"
       << "  first divergent window boundary: cycle "
       << divergence.window << "\n"
       << "  exact first divergent cycle:     cycle "
       << divergence.cycle << "\n";
    if (!divergence.referenceDump.empty()) {
        os << "--- reference state at cycle " << divergence.cycle
           << " ---\n"
           << divergence.referenceDump;
        os << "--- divergent state at cycle " << divergence.cycle
           << " ---\n"
           << divergence.divergentDump;
    }
    return os.str();
}

} // namespace rat::check
