/**
 * @file
 * Strategy interface between the RunaheadEngine and its efficiency
 * variants: a RunaheadPolicy decides which long-latency loads may
 * start an episode and how far an episode may run; the engine owns
 * everything else (checkpointing, the runahead cache, exit restore).
 *
 * Adding a variant is: add an RaVariant enumerator and its kRaVariants
 * row (runahead/variant.hh), implement the three hooks here, and extend
 * makeRunaheadPolicy — the engine, the core, the CLI and the sweep grid
 * pick it up unchanged (see DESIGN.md, "RunaheadEngine extraction &
 * variant interface").
 */

#ifndef RAT_RUNAHEAD_POLICY_HH
#define RAT_RUNAHEAD_POLICY_HH

#include <memory>

#include "common/types.hh"
#include "core/config.hh"
#include "trace/microop.hh"

namespace rat::runahead {

/**
 * Episode policy of one engine instance. Implementations must be
 * deterministic pure functions of their own trained state — the
 * simulator's bit-reproducibility (DESIGN.md, "Determinism and
 * seeding") extends through this interface.
 */
/** What a variant decides about a would-be episode. */
enum class EntryDecision : std::uint8_t {
    /** Run a full episode (fetch + execute past the miss). */
    Enter,
    /**
     * Enter runahead but gate fetch for the episode: the in-flight
     * window drains (still releasing its shared resources early — the
     * SMT half of the paper's benefit), and nothing new is fetched or
     * executed. This is how a variant suppresses predicted-useless
     * *work* without reverting the thread to ICOUNT's clog-the-ROB
     * behavior, which full suppression measurably inflicts on the
     * co-runners (see DESIGN.md).
     */
    DrainOnly,
    /** No episode at all: the thread stalls on the miss. */
    Veto,
};

class RunaheadPolicy
{
  public:
    virtual ~RunaheadPolicy() = default;

    /**
     * Decide the episode mode for this long-latency load (found
     * blocking its thread's ROB head). Called every cycle while the
     * load blocks commit; implementations must answer consistently for
     * one (tid, load.seq) instance, and may train suppression state on
     * the first query of an instance.
     */
    virtual EntryDecision
    entryDecision(ThreadId tid, const trace::MicroOp &load)
    {
        (void)tid;
        (void)load;
        return EntryDecision::Enter;
    }

    /**
     * Exit horizon of an episode entered at @p now whose blocking fill
     * completes at @p fill_at. The engine exits the episode at the
     * first cycle >= the returned value (it also feeds the core's
     * nextEventCycle() quiescence clamp, so it must not move once an
     * episode is running).
     */
    virtual Cycle
    exitHorizon(Cycle now, Cycle fill_at) const
    {
        (void)now;
        return fill_at;
    }

    /**
     * An episode of @p tid that entered on the load at @p entry_pc has
     * ended after generating @p prefetches useful line fills.
     * @p full_episode is false for DrainOnly episodes — their drained
     * window says nothing about what a full episode would have
     * prefetched, so usefulness predictors must not train on them.
     */
    virtual void
    onEpisodeEnd(ThreadId tid, Addr entry_pc, std::uint64_t prefetches,
                 bool full_episode)
    {
        (void)tid;
        (void)entry_pc;
        (void)prefetches;
        (void)full_episode;
    }

    /** Variant display name (canonical CLI spelling). */
    virtual const char *name() const = 0;
};

/** Create the episode policy selected by @p cfg.variant. */
std::unique_ptr<RunaheadPolicy> makeRunaheadPolicy(
    const core::RatConfig &cfg);

} // namespace rat::runahead

#endif // RAT_RUNAHEAD_POLICY_HH
