/**
 * @file
 * The simultaneous-multithreaded out-of-order core. The Runahead
 * Threads mechanism it hosts lives in its own subsystem — the
 * `runahead::RunaheadEngine` owns episode state, checkpoints, the
 * runahead cache and the runtime-selected efficiency variant; this
 * core owns the pipeline machinery episodes ride on (INV folding and
 * its cascade, pseudo-retirement, the exit squash) and talks to the
 * engine through its narrow trigger/horizon/hook interface (see
 * runahead/engine.hh and DESIGN.md, "RunaheadEngine extraction &
 * variant interface").
 *
 * Pipeline model (evaluated oldest-stage-first each cycle):
 *   1. completions  — writeback: wake consumers, resolve branches
 *   2. runahead exit — the engine's exit horizon passed: squash the
 *                     speculative window, restore the engine's
 *                     checkpoint
 *   3. commit       — per-thread in-order retire / pseudo-retire; the
 *                     runahead *entry* trigger fires here (L2-miss
 *                     load at the thread's ROB head, gated by
 *                     RunaheadEngine::mayEnter)
 *   4. issue        — oldest-first select from the event-driven ready
 *                     queue (DESIGN.md, "Event-driven wakeup")
 *   5. rename       — round-robin over threads, shared width; runahead
 *                     INV folding happens here; waiting sources link
 *                     onto their producer registers' waiter lists
 *   6. fetch        — policy-ordered ICOUNT.2.8 style fetch
 *   7. sampling     — statistics and policy end-of-cycle work
 *
 * Branch handling is the standard trace-driven bubble model: a detected
 * misprediction stalls the thread's fetch until the branch resolves and
 * then charges a redirect penalty; wrong-path instructions are not
 * fetched (documented in DESIGN.md).
 */

#ifndef RAT_CORE_SMT_CORE_HH
#define RAT_CORE_SMT_CORE_HH

#include <array>
#include <memory>
#include <queue>
#include <vector>

#include "branch/btb.hh"
#include "branch/perceptron.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/dyninst.hh"
#include "core/policy_iface.hh"
#include "core/regfile.hh"
#include "core/stats.hh"
#include "core/structures.hh"
#include "mem/hierarchy.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "runahead/engine.hh"
#include "trace/generator.hh"
#include "trace/source.hh"

namespace rat::check {
class Auditor;
class DigestCollector;
class Mutator;
class StateHasher;
}

namespace rat::sim {
class CheckpointCodec;
}

namespace rat::core {

/**
 * The SMT processor core.
 */
class SmtCore
{
  public:
    /**
     * @param config  Core configuration (Table 1 defaults).
     * @param mem     Shared memory hierarchy (not owned).
     * @param policy  Scheduling policy (not owned).
     * @param streams One trace generator per hardware thread (not owned);
     *                size must equal config.numThreads.
     */
    SmtCore(const CoreConfig &config, mem::MemoryHierarchy &mem,
            SchedulingPolicy &policy,
            std::vector<const trace::TraceSource *> streams);

    /** Advance one cycle. */
    void tick();

    /** Advance @p n cycles. */
    void run(Cycle n);

    /**
     * Functional warm-up: walk @p insts instructions of every thread's
     * trace with zero-latency cache installs and predictor/BTB training,
     * then start timing simulation at that trace position. This is the
     * standard trace-driven substitute for the long cache-warming phase
     * of execution-driven methodology (see DESIGN.md).
     */
    void prewarm(InstSeq insts);

    /** Current cycle. */
    Cycle cycle() const { return cycle_; }

    /** Reset statistics (state, caches and progress are preserved). */
    void resetStats();

    // --- introspection (policies, tests, benches) ------------------------

    const CoreConfig &config() const { return config_; }
    unsigned numThreads() const { return config_.numThreads; }
    const ThreadStats &threadStats(ThreadId tid) const
    {
        return stats_[tid];
    }
    /** ICOUNT value: in-flight front-end + issue-queue instructions. */
    unsigned icount(ThreadId tid) const { return threads_[tid].icount; }
    /** Thread's ROB occupancy. */
    unsigned robOccupancy(ThreadId tid) const
    {
        return rob_.threadCount(tid);
    }
    /** Shared-ROB free entries. */
    unsigned robFree() const { return rob_.freeEntries(); }
    /** Thread's issue-queue occupancy for one class. */
    unsigned iqOccupancy(IqClass cls, ThreadId tid) const
    {
        return threads_[tid].iqCount[static_cast<unsigned>(cls)];
    }
    /** Thread's held renaming registers in one class. */
    unsigned regsHeld(ThreadId tid, bool fp) const
    {
        return fp ? threads_[tid].fpRegsHeld : threads_[tid].intRegsHeld;
    }
    /** Thread's LSQ occupancy. */
    unsigned lsqOccupancy(ThreadId tid) const
    {
        return lsq_.threadCount(tid);
    }
    /** Is the thread in runahead mode? */
    bool inRunahead(ThreadId tid) const
    {
        return raEngine_.inRunahead(tid);
    }
    /** The runahead subsystem (variant stats, tests, benches). */
    const runahead::RunaheadEngine &runaheadEngine() const
    {
        return raEngine_;
    }
    /** Does the thread have an outstanding demand L2 miss? */
    bool hasPendingL2Miss(ThreadId tid) const
    {
        return threads_[tid].pendingL2Misses > 0;
    }
    /** Has the thread issued an FP op recently (DCRA activity)? */
    Cycle lastFpIssue(ThreadId tid) const
    {
        return threads_[tid].lastFpIssue;
    }
    /** Next trace index to fetch. */
    InstSeq nextFetchSeq(ThreadId tid) const
    {
        return threads_[tid].nextSeq;
    }
    /** The branch predictor (shared). */
    const branch::PerceptronPredictor &predictor() const
    {
        return predictor_;
    }
    /** Allocated renaming registers in a class across threads. */
    unsigned allocatedRegs(bool fp) const
    {
        return fp ? fpRegs_.allocatedCount() : intRegs_.allocatedCount();
    }

    /**
     * Scheduler hot-path work counters (reset by resetStats). Each
     * "visit" is one candidate examined: one actual dependence edge or
     * one ready-queue entry. The core tests pin the O(actual
     * dependents) claim of DESIGN.md "Event-driven wakeup" on these.
     */
    struct SchedCounters {
        /** Candidates examined by wakeConsumers. */
        std::uint64_t regWakeVisits = 0;
        /** Candidates examined by wakeStoreDependents. */
        std::uint64_t storeWakeVisits = 0;
        /** Issue candidates examined by issueStage. */
        std::uint64_t readySelectVisits = 0;
    };
    const SchedCounters &schedCounters() const { return sched_; }

    /**
     * Quiescence-aware cycle-skipping counters (reset by resetStats).
     * A "span" is one fast-forward of the clock from a provably idle
     * tick to the next cycle at which any state can change; skipped
     * cycles are the ticks elided that way. Zero both when
     * CoreConfig::cycleSkipping is off or the core never goes idle.
     */
    struct SkipStats {
        /** Cycles elided by fast-forwarding (never ticked). */
        std::uint64_t skippedCycles = 0;
        /** Fast-forward spans taken. */
        std::uint64_t skipSpans = 0;
    };
    const SkipStats &skipStats() const { return skip_; }

    // --- observability (obs/): observation only, never feedback ----------

    /**
     * Attach/detach the event tracer (nullptr = off). The enabled
     * category mask is cached in `traceMask_`, so every disabled
     * instrumentation site costs one always-not-taken test of a hot
     * register — attaching no tracer is the branch-predicted no-op the
     * perf_simspeed tracing guard pins.
     */
    void
    setTracer(obs::Tracer *tracer)
    {
        tracer_ = tracer;
        traceMask_ = tracer ? tracer->mask() : 0;
    }

    /** Attach/detach the windowed counter sampler (nullptr = off). */
    void
    setSampler(obs::WindowSampler *sampler)
    {
        sampler_ = sampler;
    }

    // --- self-checking (src/check/): observation & verify hooks -----------

    /**
     * Attach/detach the state-digest collector (nullptr = off). Driven
     * at the same window boundaries as the telemetry sampler, in both
     * ticked and skipped spans, so digest streams line up cycle-exact
     * across the host-side mode grid.
     */
    void setDigestCollector(check::DigestCollector *collector);

    /**
     * Verify-mode fault injection: flip one bit of serialized state
     * (ThreadStats) at the first tick boundary at or after @p at.
     * Behaviour-neutral by construction — it perturbs only a counter —
     * so the *only* observable effect is a digest divergence, which
     * `ratsim verify --mutate-at` must bisect to this exact window.
     */
    void armMutationAt(Cycle at) { mutateAt_ = at; }

    /**
     * Print a one-line diagnostic description of a thread's ROB head to
     * stderr (debugging aid; stable API for tooling and tests).
     */
    void dumpThreadHead(ThreadId tid) const;

    // --- actions available to policies ------------------------------------

    /**
     * Squash all of @p tid's instructions younger than @p seq (the FLUSH
     * policy action). The trace cursor rewinds to seq + 1.
     */
    void squashYoungerThan(ThreadId tid, InstSeq seq);

  private:
    // The self-checking subsystem (src/check/) enumerates and audits
    // private core state read-only; the Mutator is the MutationCheck
    // test hook that deliberately corrupts it.
    friend class ::rat::check::Auditor;
    friend class ::rat::check::StateHasher;
    friend class ::rat::check::Mutator;
    // The sampled-simulation checkpoint codec (sim/checkpoint.hh)
    // saves/restores the functional post-prewarm state.
    friend class ::rat::sim::CheckpointCodec;

    // Per-thread microarchitectural state.
    struct ThreadState {
        const trace::TraceSource *gen = nullptr;
        InstSeq nextSeq = 0;

        // Front end.
        InstList fetchQueue;
        Cycle fetchBlockedUntil = 0;
        bool waitingBranch = false;
        InstHandle blockingBranch{};
        Addr lastFetchLine = ~Addr{0};
        branch::ReturnAddressStack ras{16};

        // Rename state.
        RenameMap intMap;
        RenameMap fpMap;

        // Occupancy counters.
        unsigned icount = 0;
        unsigned iqCount[kNumIqClasses] = {0, 0, 0};
        unsigned intRegsHeld = 0;
        unsigned fpRegsHeld = 0;

        // Long-latency tracking.
        unsigned pendingL2Misses = 0;
        Cycle lastFpIssue = 0;

        /**
         * Trace memoization: runahead exit and branch redirects rewind
         * nextSeq and refetch the same trace window — under RaT, well
         * over half of all fetches are refetches. TraceGenerator::at is
         * purely functional in (seed, seq), so a direct-mapped memo
         * turns those refetches into array hits.
         */
        struct TraceMemoEntry {
            InstSeq seq = ~InstSeq{0};
            trace::MicroOp op{};
        };
        std::vector<TraceMemoEntry> traceMemo;

        // Per-thread runahead state (episode checkpoint, exit horizon,
        // suppression sets) lives in the RunaheadEngine, not here.
    };

    // Timed event referencing a pooled instruction.
    struct InstEvent {
        Cycle at;
        InstHandle inst;
        bool operator>(const InstEvent &o) const { return at > o.at; }
    };

    using EventQueue =
        std::priority_queue<InstEvent, std::vector<InstEvent>,
                            std::greater<InstEvent>>;

    /**
     * One entry of the incrementally maintained ready queue: pushed the
     * moment an instruction's last source turns Ready, popped
     * oldest-first (by uid) at issue. Entries are lazily validated at
     * pop time — an instruction folded or squashed after insertion
     * leaves a stale entry behind, detected by the pool generation
     * check plus the uid match.
     */
    struct ReadyEntry {
        std::uint64_t uid;
        InstHandle inst;
        bool operator>(const ReadyEntry &o) const { return uid > o.uid; }
    };

    using ReadyQueue =
        std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                            std::greater<ReadyEntry>>;

    // --- pipeline stages --------------------------------------------------
    void processCompletions();
    void checkRunaheadTransitions();
    void commitStage();
    void issueStage();
    void renameStage();
    void fetchStage();
    void sampleCycle();

    // --- helpers ----------------------------------------------------------
    /** Trace-memo capacity per thread (power of two, covers the fetch
     * window of one runahead episode). */
    static constexpr std::size_t kTraceMemoSize = 1024;
    /** Micro-op at @p seq of @p t's trace, via the trace memo. */
    trace::MicroOp traceAt(ThreadState &t, InstSeq seq);
    void fetchThread(ThreadId tid, unsigned &budget);
    bool renameOne(ThreadId tid);
    bool tryIssueInst(DynInst &inst);
    void completeInst(DynInst &inst);
    void resolveControl(DynInst &inst);

    /** Fold an instruction as runahead-INV; cascades to consumers. */
    void foldInst(DynInst &inst);
    /** Release the renaming register and fix the map after retire/fold. */
    void releaseDest(DynInst &inst, bool make_inv);
    /** Wake issue-queue consumers of a completed/INV register. */
    void wakeConsumers(bool is_fp, MapEntry tag, bool inv);
    /** Wake loads waiting on a completed/INV store. */
    void wakeStoreDependents(DynInst &store, bool inv);
    /** Drain the INV cascade worklist. */
    void drainFolds();

    // --- event-driven scheduler plumbing (DESIGN.md) ----------------------

    /** Link a Waiting source onto its producer register's waiter list. */
    void linkWaiter(DynInst &inst, unsigned src);
    /** Unlink one waiter node (squash/release path), O(1). */
    void unlinkWaiter(DynInst &inst, unsigned src);
    /** Drop kWaiterLinks from the mask once no source is linked. */
    void refreshWaiterMask(DynInst &inst);
    /** Link a blocked load onto @p store's dependent chain. */
    void linkStoreDependent(DynInst &store, DynInst &load);
    /** Unlink a load from its store's dependent chain, O(1). */
    void unlinkStoreDependent(DynInst &load);
    /** Detach every scheduler link; required before pool release. */
    void unlinkSched(DynInst &inst);
    /** Enqueue @p inst for issue if it is in-queue and fully ready. */
    void pushReady(DynInst &inst);

    /** Start an episode: engine checkpoint + fold of in-flight misses. */
    void enterRunahead(ThreadId tid, DynInst &blocking_load);
    /** End an episode: squash the window, restore the checkpoint. */
    void exitRunahead(ThreadId tid);
    /** Retire one instruction (commit or pseudo-retire). */
    bool retireHead(ThreadId tid);

    /** Remove an instruction from all structures and release it. */
    void scrubInst(DynInst &inst, bool restore_map);

    // --- quiescence-aware cycle skipping (DESIGN.md) -----------------------

    /**
     * Earliest cycle at which *any* state can change, given the tick
     * that just ended was fully quiescent: the completion and
     * L2-detection heap heads, the earliest outstanding MSHR fill, the
     * runahead engine's earliest exit horizon, fetch-unblock and
     * rename-ready times, and the policy's time horizon. kNoCycle when
     * nothing is pending.
     */
    Cycle nextEventCycle() const;

    /**
     * Fast-forward the clock from the current (quiescent) cycle to
     * @p target without ticking: integrate the sampleCycle()
     * accumulators analytically over the span (occupancy is constant
     * while quiescent, so multiply instead of loop), advance the
     * per-cycle rotation cursors exactly as the elided ticks would
     * have, and notify the policy.
     */
    void skipTo(Cycle target);

    RenameMap &mapOf(ThreadId tid, bool fp)
    {
        return fp ? threads_[tid].fpMap : threads_[tid].intMap;
    }
    PhysRegFile &fileOf(bool fp) { return fp ? fpRegs_ : intRegs_; }
    IssueQueue &queueOf(IqClass cls)
    {
        return iqs_[static_cast<unsigned>(cls)];
    }

    /** Latency of an op class. */
    static unsigned opLatency(trace::OpClass op);
    /** Occupancy of the functional unit (latency if unpipelined). */
    static unsigned fuOccupancy(trace::OpClass op);
    FuncUnitPool &poolOf(trace::OpClass op);

    // --- observability plumbing (obs/) ------------------------------------

    /**
     * Feed the sampler the window sample due at its current boundary:
     * cumulative committed/executed/RA-executed counters plus the
     * instantaneous ROB/IQ/LSQ occupancies (summed over threads).
     * Values are read-only snapshots — sampling cannot perturb the
     * simulation.
     */
    void takeTelemetrySample();

    // --- self-checking plumbing (src/check/) ------------------------------

    /**
     * Run the invariant auditor and abort with its structured
     * diagnostics on any violation. Called from tick() under the
     * CheckLevel gate; out of line so smt_core.hh need not see the
     * auditor's definition.
     */
    void runAudit();
    /** True when the CheckLevel gate fires for the tick just ended. */
    bool
    auditDue() const
    {
        if (config_.checkLevel == CheckLevel::Off)
            return false;
        return config_.checkLevel == CheckLevel::Full ||
               config_.checkInterval == 0 ||
               cycle_ % config_.checkInterval == 0;
    }
    /** Apply the armed single-bit mutation (verify fault injection). */
    void applyMutation();

    // --- members ----------------------------------------------------------
    CoreConfig config_;
    mem::MemoryHierarchy &mem_;
    SchedulingPolicy &policy_;

    Cycle cycle_ = 0;
    /**
     * Instructions functionally walked by prewarm() so far (per
     * thread). Makes prewarm incremental: the pseudo-time LRU stamps of
     * a second call continue where the first stopped, so walking N
     * instructions in any number of calls leaves state bit-identical
     * to one prewarm(N) — the property the checkpoint walker relies
     * on. A single call from reset is unchanged (the counter starts
     * at zero).
     */
    InstSeq prewarmedInsts_ = 0;

    InstPool pool_;
    Rob rob_;
    std::array<IssueQueue, kNumIqClasses> iqs_;
    Lsq lsq_;
    PhysRegFile intRegs_;
    PhysRegFile fpRegs_;
    FuncUnitPool intUnits_;
    FuncUnitPool fpUnits_;
    FuncUnitPool memUnits_;

    branch::PerceptronPredictor predictor_;
    branch::Btb btb_;
    runahead::RunaheadEngine raEngine_;

    std::vector<ThreadState> threads_;
    std::array<ThreadStats, kMaxThreads> stats_{};

    EventQueue completions_;
    EventQueue l2Detections_;

    ReadyQueue readyQ_; ///< age-ordered ready instructions
    SchedCounters sched_;
    SkipStats skip_;

    /**
     * Did the last tick() do any work? Set by every stage on any state
     * change a skipped cycle could not reproduce: an event popped, a
     * fold, a retire (or a rejected store-commit memory access), a
     * ready-queue candidate, a rename, a fetch attempt. A tick that
     * ends with this false is fully quiescent: re-running it (or any
     * later cycle before nextEventCycle()) would change nothing, which
     * is what makes fast-forwarding bit-identical.
     */
    bool tickActivity_ = false;

    unsigned renameRR_ = 0;
    unsigned commitRR_ = 0;

    // Observability (obs/). traceMask_ is 0 when no tracer is attached,
    // making every instrumentation site a single predictable branch.
    obs::Tracer *tracer_ = nullptr;
    unsigned traceMask_ = 0;
    obs::WindowSampler *sampler_ = nullptr;

    // Self-checking (src/check/). The collector pointer is driven at
    // sampler boundaries; mutateAt_ is a verify-mode hook (kNoCycle =
    // disarmed, one predictable branch per tick).
    check::DigestCollector *digests_ = nullptr;
    Cycle mutateAt_ = kNoCycle;
    /** Episode-entry records for runahead span events + histograms. */
    struct EpisodeTraceEntry {
        Cycle enteredAt = 0;
        Addr triggerPc = 0;
        std::uint64_t pseudoRetiredAtEntry = 0;
    };
    std::array<EpisodeTraceEntry, kMaxThreads> raTrace_{};

    std::vector<ThreadId> fetchOrder_; // scratch
    std::vector<ReadyEntry> readyPutback_; // un-issued ready re-queue
    std::vector<InstHandle> foldQueue_; // INV cascade worklist
};

} // namespace rat::core

#endif // RAT_CORE_SMT_CORE_HH
