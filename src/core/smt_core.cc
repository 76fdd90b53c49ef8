#include "core/smt_core.hh"

#include <algorithm>
#include <iterator>

#include "check/auditor.hh"
#include "check/digest.hh"
#include "common/logging.hh"

namespace rat::core {

SmtCore::SmtCore(const CoreConfig &config, mem::MemoryHierarchy &mem,
                 SchedulingPolicy &policy,
                 std::vector<const trace::TraceSource *> streams)
    : config_(config), mem_(mem), policy_(policy),
      pool_(config.robEntries +
            static_cast<std::size_t>(config.numThreads) *
                config.fetchQueueEntries +
            64),
      rob_(config.robEntries),
      iqs_{IssueQueue{"intIQ", config.intIqEntries},
           IssueQueue{"lsIQ", config.lsIqEntries},
           IssueQueue{"fpIQ", config.fpIqEntries}},
      lsq_(config.lsqEntries),
      intRegs_(config.intRegs),
      fpRegs_(config.fpRegs), intUnits_("intFU", config.intUnits),
      fpUnits_("fpFU", config.fpUnits), memUnits_("memFU", config.memUnits),
      predictor_(config.predictor), btb_(), raEngine_(config.rat)
{
    if (config.numThreads == 0 || config.numThreads > kMaxThreads)
        fatal("numThreads %u out of range [1,%u]", config.numThreads,
              kMaxThreads);
    if (streams.size() != config.numThreads)
        fatal("need %u trace streams, got %zu", config.numThreads,
              streams.size());
    threads_.resize(config.numThreads);
    for (unsigned t = 0; t < config.numThreads; ++t) {
        RAT_ASSERT(streams[t] != nullptr, "null trace stream");
        threads_[t].gen = streams[t];
        threads_[t].traceMemo.resize(kTraceMemoSize);
        threads_[t].traceMemoBase.assign(kTraceMemoSize / kTraceMemoBlock,
                                         ~InstSeq{0});
    }
    policy_.reset(*this);
}

unsigned
SmtCore::opLatency(trace::OpClass op)
{
    using trace::OpClass;
    switch (op) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return:
      case OpClass::Lock:
      case OpClass::Unlock:
        return 1;
      case OpClass::IntMul:
        return 3;
      case OpClass::IntDiv:
        return 20;
      case OpClass::FpAdd:
        return 2;
      case OpClass::FpMul:
        return 4;
      case OpClass::FpDiv:
        return 12;
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::FpLoad:
      case OpClass::FpStore:
        return 1; // AGU; cache latency added by the hierarchy
      case OpClass::NumClasses:
        break;
    }
    panic("opLatency on invalid op class");
}

unsigned
SmtCore::fuOccupancy(trace::OpClass op)
{
    // Divides are unpipelined and hold their unit for the full latency.
    if (op == trace::OpClass::IntDiv || op == trace::OpClass::FpDiv)
        return opLatency(op);
    return 1;
}

FuncUnitPool &
SmtCore::poolOf(trace::OpClass op)
{
    if (trace::isMemOp(op))
        return memUnits_;
    if (trace::isFpComputeOp(op))
        return fpUnits_;
    return intUnits_;
}

void
SmtCore::run(Cycle n)
{
    const Cycle end = cycle_ + n;
    if (!config_.cycleSkipping) {
        while (cycle_ < end)
            tick();
        return;
    }

    // Quiescence-aware fast path: after a tick that did no work, every
    // cycle up to (but excluding) the next event is provably a no-op —
    // skip straight to it. The run boundary clamps the skip, so a
    // caller-visible phase boundary (e.g. the simulator's
    // warmup→measure resetStats) is never crossed.
    while (cycle_ < end) {
        tick();
        if (tickActivity_ || cycle_ >= end)
            continue;
        const Cycle next = nextEventCycle();
        const Cycle target = next < end ? next : end;
        if (target > cycle_)
            skipTo(target);
    }
}

Cycle
SmtCore::nextEventCycle() const
{
    Cycle next = kNoCycle;
    const auto clamp = [&next](Cycle at) {
        if (at < next)
            next = at;
    };

    // Timed events already scheduled. Stale heap entries (folded or
    // squashed instructions) only make this conservative: the tick at
    // their time pops them, does nothing, and skipping resumes.
    if (!completions_.empty())
        clamp(completions_.top().at);
    if (!l2Detections_.empty())
        clamp(l2Detections_.top().at);

    // Earliest outstanding line fill. Strictly a subset of the cases
    // above would suffice (every access that can unblock the core has a
    // completion event or a per-thread horizon), but fills also retire
    // MSHR entries that gate rejected accesses, so clamp on them too —
    // a too-early stop is only a wasted no-op tick, never wrong.
    clamp(mem_.nextFillCompletion(cycle_));

    const bool rob_full = rob_.full();
    for (unsigned tid = 0; tid < config_.numThreads; ++tid) {
        const ThreadState &t = threads_[tid];
        const bool in_ra = raEngine_.inRunahead(static_cast<ThreadId>(tid));
        // Runahead exit fires the first cycle >= the engine's horizon.
        if (in_ra)
            clamp(raEngine_.exitAt(static_cast<ThreadId>(tid)));
        // Fetch re-enables the first cycle >= fetchBlockedUntil — but
        // only when time is what blocks it. A thread gated by an
        // unresolved branch, a full fetch queue or the no-fetch
        // ablation can only be released by a core event, and the
        // releasing tick is active, so quiescence is re-evaluated (and
        // this clamp re-applied) before any skip could overshoot.
        const bool fetch_event_gated =
            t.waitingBranch ||
            t.fetchQueue.size() >= config_.fetchQueueEntries ||
            (config_.rat.noFetchInRunahead && in_ra) ||
            raEngine_.fetchSuppressed(static_cast<ThreadId>(tid));
        if (!fetch_event_gated && t.fetchBlockedUntil >= cycle_)
            clamp(t.fetchBlockedUntil);
        // The fetch-queue head becomes renameable at renameReadyAt.
        // With the ROB full, rename (including the runahead fold path,
        // which also allocates a ROB slot) stays blocked until a commit
        // frees an entry — an event, so no time clamp is needed.
        if (!rob_full) {
            if (const DynInst *head = t.fetchQueue.head()) {
                if (head->renameReadyAt >= cycle_)
                    clamp(head->renameReadyAt);
            }
        }
    }

    // Policy-imposed horizon (epoch boundaries, activity windows).
    clamp(policy_.quiescentUntil(*this, cycle_));
    return next;
}

void
SmtCore::skipTo(Cycle target)
{
    RAT_ASSERT(target > cycle_, "skipTo must move the clock forward");
    const Cycle span = target - cycle_;
    const unsigned n = config_.numThreads;

    // Analytic integration of sampleCycle() over the span: per-thread
    // mode and register occupancy are constant while quiescent.
    for (unsigned tid = 0; tid < n; ++tid) {
        const ThreadState &t = threads_[tid];
        ThreadStats &s = stats_[tid];
        const unsigned held = t.intRegsHeld + t.fpRegsHeld;
        if (raEngine_.inRunahead(static_cast<ThreadId>(tid))) {
            s.runaheadCycles += span;
            s.runaheadRegCycles += span * held;
        } else {
            s.normalCycles += span;
            s.normalRegCycles += span * held;
        }
    }

    // Per-cycle rotation cursors advance once per tick regardless of
    // work; replay the elided ticks' increments in closed form.
    renameRR_ = static_cast<unsigned>((renameRR_ + span) % n);
    commitRR_ = static_cast<unsigned>((commitRR_ + span) % n);

    policy_.onCyclesSkipped(*this, span);

    // Window boundaries crossed by the span: every counter and
    // occupancy the sampler reads is constant while quiescent, so the
    // samples a ticked run would have taken at each boundary are
    // exactly the current values.
    while (sampler_ && sampler_->nextAt() <= target)
        takeTelemetrySample();

    // Digest boundaries crossed by the span. The enumeration the
    // digest hashes excludes everything skipTo changed above (the
    // per-cycle integrals, cursors and scan counters are host-mode
    // artifacts), so the digest a ticked run would have produced at
    // each boundary is exactly the current state's. The armed fault
    // injection replays with tick semantics: a boundary B reflects the
    // mutation iff a tick at cycle B-1 would have applied it.
    while (digests_ && digests_->nextAt() <= target) {
        if (mutateAt_ != kNoCycle && mutateAt_ < digests_->nextAt())
            applyMutation();
        digests_->sampleAt(*this);
    }
    if (mutateAt_ != kNoCycle && mutateAt_ < target)
        applyMutation();

    if (traceMask_ & obs::kCatSched)
        tracer_->recordCore(obs::EventKind::CycleSkip, cycle_, target);

    skip_.skippedCycles += span;
    ++skip_.skipSpans;
    cycle_ = target;
}

void
SmtCore::tick()
{
    // Verify-mode hook (disarmed in normal runs): the fault injection
    // fires at the first tick at or after its cycle.
    if (mutateAt_ != kNoCycle && cycle_ >= mutateAt_)
        applyMutation();

    tickActivity_ = false;
    policy_.beginCycle(*this);
    processCompletions();
    checkRunaheadTransitions();
    commitStage();
    issueStage();
    renameStage();
    fetchStage();
    sampleCycle();
    if (auditDue())
        runAudit();
    ++cycle_;
}

void
SmtCore::runAudit()
{
    const check::AuditReport report = check::Auditor::audit(*this);
    if (report.ok())
        return;
    fatal("invariant audit failed at cycle %llu "
          "(%zu violation%s):\n%s",
          static_cast<unsigned long long>(cycle_),
          report.failures.size(),
          report.failures.size() == 1 ? "" : "s",
          report.format().c_str());
}

void
SmtCore::applyMutation()
{
    // Single-bit and behaviour-neutral by construction: the committed
    // counter feeds results and digests, never a scheduling decision,
    // so the injected fault is visible to `ratsim verify` alone.
    stats_[0].committedInsts ^= 1;
    mutateAt_ = kNoCycle;
}

void
SmtCore::setDigestCollector(check::DigestCollector *collector)
{
    digests_ = collector;
}

void
SmtCore::resetStats()
{
    stats_ = {};
    sched_ = {};
    skip_ = {};
    predictor_.resetStats();
    btb_.resetStats();
    raEngine_.resetStats();
}

// ---------------------------------------------------------------------------
// Completion / writeback
// ---------------------------------------------------------------------------

void
SmtCore::processCompletions()
{
    while (!completions_.empty() && completions_.top().at <= cycle_) {
        const InstHandle h = completions_.top().inst;
        completions_.pop();
        tickActivity_ = true;
        DynInst *inst = pool_.get(h);
        if (!inst || inst->status != InstStatus::Executing)
            continue; // squashed or folded since scheduling
        completeInst(*inst);
    }

    // Long-latency detection events for the policies (STALL/FLUSH/DCRA
    // learn about an L2 miss one L2 lookup after issue).
    while (!l2Detections_.empty() && l2Detections_.top().at <= cycle_) {
        const InstHandle h = l2Detections_.top().inst;
        l2Detections_.pop();
        tickActivity_ = true;
        DynInst *inst = pool_.get(h);
        if (!inst || !inst->countedL2Miss)
            continue;
        if (raEngine_.inRunahead(inst->tid))
            continue;
        policy_.onL2MissDetected(*this, inst->tid, *inst);
    }

    // Drain any INV cascade started by the wakeups above.
    drainFolds();
}

void
SmtCore::drainFolds()
{
    if (!foldQueue_.empty())
        tickActivity_ = true;
    while (!foldQueue_.empty()) {
        const InstHandle h = foldQueue_.back();
        foldQueue_.pop_back();
        if (DynInst *inst = pool_.get(h))
            foldInst(*inst);
    }
}

void
SmtCore::completeInst(DynInst &inst)
{
    ThreadState &t = threads_[inst.tid];
    inst.status = InstStatus::Complete;

    if (inst.countedL2Miss) {
        RAT_ASSERT(t.pendingL2Misses > 0, "pending L2 miss underflow");
        --t.pendingL2Misses;
        inst.countedL2Miss = false;
    }

    if (inst.hasDstReg) {
        fileOf(inst.dstIsFp).setReady(inst.dstPhys);
        wakeConsumers(inst.dstIsFp, inst.dstPhys, /*inv=*/false);
    }

    if (trace::isStoreOp(inst.op.op))
        wakeStoreDependents(inst, /*inv=*/false);

    if (trace::isControlOp(inst.op.op))
        resolveControl(inst);

    // Drain the INV cascade possibly started by the wakeups.
    drainFolds();
}

void
SmtCore::resolveControl(DynInst &inst)
{
    ThreadState &t = threads_[inst.tid];
    if (inst.op.op == trace::OpClass::Branch) {
        ++stats_[inst.tid].branches;
        if (inst.mispredicted)
            ++stats_[inst.tid].branchMispredicts;
        predictor_.update(inst.tid, inst.op.pc, inst.op.taken, inst.pred);
    }
    if (inst.op.taken && (inst.op.op == trace::OpClass::Branch ||
                          inst.op.op == trace::OpClass::Call)) {
        btb_.update(inst.op.pc, inst.op.target);
    }
    if (inst.mispredicted && t.waitingBranch &&
        t.blockingBranch == inst.handle()) {
        t.waitingBranch = false;
        t.fetchBlockedUntil = std::max(
            t.fetchBlockedUntil, cycle_ + Cycle{config_.mispredictRedirect});
    }
}

void
SmtCore::wakeConsumers(bool is_fp, MapEntry tag, bool inv)
{
    // Event-driven: the register carries the exact list of waiting
    // (instruction, source) nodes; consume it wholesale. Nodes of
    // instructions folded since they linked are skipped — they retire
    // later and unlink any remaining nodes then.
    RegWaiter w = fileOf(is_fp).takeWaiters(static_cast<PhysReg>(tag));
    while (w.inst) {
        ++sched_.regWakeVisits;
        DynInst *c = w.inst;
        const unsigned src = w.src;
        w = {c->wakeNext[src], c->wakeNextSrc[src]};
        c->wakeNext[src] = c->wakePrev[src] = nullptr;
        c->onWaiterList[src] = false;
        refreshWaiterMask(*c);
        RAT_ASSERT(c->srcIsFp[src] == is_fp && c->srcTag[src] == tag,
                   "waiter node on the wrong register list");
        if (c->status != InstStatus::InQueue)
            continue; // folded since it linked
        RAT_ASSERT(c->srcState[src] == SrcState::Waiting,
                   "linked source no longer waiting");
        c->srcState[src] = inv ? SrcState::Invalid : SrcState::Ready;
        if (inv)
            foldQueue_.push_back(c->handle());
        else
            pushReady(*c);
    }
}

void
SmtCore::wakeStoreDependents(DynInst &store, bool inv)
{
    DynInst *c = store.depHead;
    store.depHead = nullptr;
    store.schedLinkMask &= static_cast<std::uint8_t>(~DynInst::kDepHead);
    while (c) {
        ++sched_.storeWakeVisits;
        DynInst *next = c->depNext;
        c->depNext = c->depPrev = nullptr;
        c->depStore = nullptr;
        c->onDepList = false;
        c->schedLinkMask &= static_cast<std::uint8_t>(~DynInst::kDepLink);
        // Loads folded since they linked keep their stale dependence
        // tag: only a load still in the memory IQ is woken.
        if (c->status == InstStatus::InQueue &&
            c->depStoreUid == store.uid) {
            c->depStoreUid = 0;
            if (inv)
                foldQueue_.push_back(c->handle());
            else
                pushReady(*c);
        }
        c = next;
    }
}

// ---------------------------------------------------------------------------
// Event-driven scheduler plumbing (DESIGN.md, "Event-driven wakeup")
// ---------------------------------------------------------------------------

void
SmtCore::pushReady(DynInst &inst)
{
    if (inst.status != InstStatus::InQueue || !inst.allSrcsReady())
        return;
    // Mostly the youngest entry: search from the back.
    auto pos = readyQ_.end();
    while (pos != readyQ_.begin() && std::prev(pos)->uid > inst.uid)
        --pos;
    readyQ_.insert(pos, {inst.uid, inst.handle()});
}

void
SmtCore::linkWaiter(DynInst &inst, unsigned src)
{
    PhysRegFile &file = fileOf(inst.srcIsFp[src]);
    const auto r = static_cast<PhysReg>(inst.srcTag[src]);
    const RegWaiter head = file.waiterHead(r);
    inst.wakeNext[src] = head.inst;
    inst.wakeNextSrc[src] = head.src;
    inst.wakePrev[src] = nullptr;
    inst.wakePrevSrc[src] = 0;
    if (head.inst) {
        head.inst->wakePrev[head.src] = &inst;
        head.inst->wakePrevSrc[head.src] = static_cast<std::uint8_t>(src);
    }
    file.setWaiterHead(r, {&inst, static_cast<std::uint8_t>(src)});
    inst.onWaiterList[src] = true;
    inst.schedLinkMask |= DynInst::kWaiterLinks;
}

void
SmtCore::refreshWaiterMask(DynInst &inst)
{
    for (unsigned i = 0; i < inst.numSrcs; ++i) {
        if (inst.onWaiterList[i])
            return;
    }
    inst.schedLinkMask &=
        static_cast<std::uint8_t>(~DynInst::kWaiterLinks);
}

void
SmtCore::unlinkWaiter(DynInst &inst, unsigned src)
{
    if (!inst.onWaiterList[src])
        return;
    DynInst *next = inst.wakeNext[src];
    const std::uint8_t next_src = inst.wakeNextSrc[src];
    if (inst.wakePrev[src]) {
        inst.wakePrev[src]->wakeNext[inst.wakePrevSrc[src]] = next;
        inst.wakePrev[src]->wakeNextSrc[inst.wakePrevSrc[src]] = next_src;
    } else {
        fileOf(inst.srcIsFp[src])
            .setWaiterHead(static_cast<PhysReg>(inst.srcTag[src]),
                           {next, next_src});
    }
    if (next) {
        next->wakePrev[next_src] = inst.wakePrev[src];
        next->wakePrevSrc[next_src] = inst.wakePrevSrc[src];
    }
    inst.wakeNext[src] = inst.wakePrev[src] = nullptr;
    inst.onWaiterList[src] = false;
    refreshWaiterMask(inst);
}

void
SmtCore::linkStoreDependent(DynInst &store, DynInst &load)
{
    RAT_ASSERT(!load.onDepList, "load already on a dependent chain");
    load.depNext = store.depHead;
    load.depPrev = nullptr;
    if (store.depHead)
        store.depHead->depPrev = &load;
    store.depHead = &load;
    load.depStore = &store;
    load.onDepList = true;
    load.schedLinkMask |= DynInst::kDepLink;
    store.schedLinkMask |= DynInst::kDepHead;
}

void
SmtCore::unlinkStoreDependent(DynInst &load)
{
    if (!load.onDepList)
        return;
    if (load.depPrev) {
        load.depPrev->depNext = load.depNext;
    } else {
        RAT_ASSERT(load.depStore && load.depStore->depHead == &load,
                   "dependent chain head mismatch");
        load.depStore->depHead = load.depNext;
        if (!load.depNext) {
            load.depStore->schedLinkMask &=
                static_cast<std::uint8_t>(~DynInst::kDepHead);
        }
    }
    if (load.depNext)
        load.depNext->depPrev = load.depPrev;
    load.depNext = load.depPrev = nullptr;
    load.depStore = nullptr;
    load.onDepList = false;
    load.schedLinkMask &= static_cast<std::uint8_t>(~DynInst::kDepLink);
}

void
SmtCore::unlinkSched(DynInst &inst)
{
    if (inst.schedLinkMask == 0)
        return; // cleanly completed (the common case): nothing linked
    for (unsigned i = 0; i < inst.numSrcs; ++i)
        unlinkWaiter(inst, i);
    unlinkStoreDependent(inst);
    RAT_ASSERT(inst.depHead == nullptr,
               "releasing a store with live dependents");
    RAT_ASSERT(inst.schedLinkMask == 0,
               "scheduler link mask out of sync");
}

// ---------------------------------------------------------------------------
// Runahead (Section 3)
// ---------------------------------------------------------------------------

void
SmtCore::releaseDest(DynInst &inst, bool make_inv)
{
    if (!inst.hasDstReg)
        return;
    ThreadState &t = threads_[inst.tid];
    RenameMap &map = mapOf(inst.tid, inst.dstIsFp);
    if (map.get(inst.op.dst) == inst.dstPhys)
        map.set(inst.op.dst, make_inv ? kMapInv : kMapArch);
    fileOf(inst.dstIsFp).release(inst.dstPhys);
    if (inst.dstIsFp)
        --t.fpRegsHeld;
    else
        --t.intRegsHeld;
    inst.hasDstReg = false;
}

void
SmtCore::foldInst(DynInst &inst)
{
    if (inst.inv || inst.status == InstStatus::Retired)
        return;
    ThreadState &t = threads_[inst.tid];

    if (inst.status == InstStatus::InQueue) {
        queueOf(iqClassOf(inst.op.op)).remove(inst);
        --t.iqCount[static_cast<unsigned>(iqClassOf(inst.op.op))];
        RAT_ASSERT(t.icount > 0, "icount underflow on fold");
        --t.icount;
    }
    // Executing instructions can be folded at runahead entry (the
    // blocking load). Their in-flight completion event goes stale.

    inst.inv = true;
    inst.folded = true;
    inst.status = InstStatus::Complete;
    ++stats_[inst.tid].invalidInsts;

    if (inst.countedL2Miss) {
        RAT_ASSERT(t.pendingL2Misses > 0, "pending L2 miss underflow");
        --t.pendingL2Misses;
        inst.countedL2Miss = false;
    }

    // Propagate INV through the register file: wake consumers first
    // (they inherit INV), then release the register early — this is the
    // "invalid registers can be freed and used by the rest of the
    // threads" property (Section 3.3, Register control).
    if (inst.hasDstReg) {
        wakeConsumers(inst.dstIsFp, inst.dstPhys, /*inv=*/true);
        releaseDest(inst, /*make_inv=*/true);
    } else if (inst.op.hasDst && inst.renamed) {
        // Destination was never backed by a register (folded at rename);
        // the map already holds kMapInv.
    }

    if (trace::isStoreOp(inst.op.op))
        wakeStoreDependents(inst, /*inv=*/true);

    // An INV branch cannot be detected as mispredicted; the thread
    // continues past it (on the trace path — see DESIGN.md limitations).
    if (trace::isControlOp(inst.op.op) && t.waitingBranch &&
        t.blockingBranch == inst.handle()) {
        t.waitingBranch = false;
        t.fetchBlockedUntil =
            std::max(t.fetchBlockedUntil, cycle_ + Cycle{1});
    }
}

void
SmtCore::enterRunahead(ThreadId tid, DynInst &blocking_load)
{
    RAT_ASSERT(blocking_load.completeAt != kNoCycle,
               "blocking load has no completion time");

    // The engine records the checkpoint (resume point, predictor
    // history, prefetch snapshot) and lets the selected variant pick
    // the exit horizon.
    raEngine_.enter(tid, blocking_load.op, cycle_,
                    blocking_load.completeAt, predictor_.history(tid),
                    mem_.threadStats(tid).raMemPrefetches +
                        mem_.threadStats(tid).raL2Prefetches);
    ++stats_[tid].runaheadEntries;

    // Episode-entry record for the exit-time span event and the
    // episode-length histogram (cheap enough to keep unconditionally).
    raTrace_[tid] = {cycle_, blocking_load.op.pc,
                     stats_[tid].pseudoRetired};

    // The blocking load's destination becomes INV (bogus value); the
    // load pseudo-retires from the ROB head on the next commit pass.
    foldInst(blocking_load);

    // "Other long-latency loads are also invalidated just like the load
    // that started the runahead mode" (Section 3.2): every in-flight
    // L2-missing load of this thread folds now; its fill continues in
    // the hierarchy as a prefetch. Without this, runahead progress would
    // serialize behind the very misses it is meant to overlap.
    // Folding never changes LSQ membership, so the intrusive list can
    // be walked in place.
    for (DynInst *inst = lsq_.head(tid); inst != nullptr;) {
        DynInst *next = inst->lsqNext;
        if (trace::isLoadOp(inst->op.op) &&
            inst->status == InstStatus::Executing && inst->memIssued &&
            inst->longLatency) {
            foldInst(*inst);
        }
        inst = next;
    }

    // Drain the INV cascade now so dependants fold promptly.
    drainFolds();
}

void
SmtCore::checkRunaheadTransitions()
{
    for (unsigned tid = 0; tid < config_.numThreads; ++tid) {
        const auto t = static_cast<ThreadId>(tid);
        if (raEngine_.inRunahead(t) && cycle_ >= raEngine_.exitAt(t)) {
            tickActivity_ = true;
            exitRunahead(t);
        }
    }
}

void
SmtCore::exitRunahead(ThreadId tid)
{
    ThreadState &t = threads_[tid];

    // Squash the whole speculative window: front-end queue first, then
    // the ROB from the tail. The checkpointed architectural state covers
    // every register, so maps are bulk-restored rather than walked.
    while (!t.fetchQueue.empty()) {
        DynInst *inst = t.fetchQueue.tail();
        t.fetchQueue.pop_back();
        scrubInst(*inst, /*restore_map=*/false);
    }
    while (!rob_.empty(tid)) {
        DynInst *inst = rob_.tail(tid);
        rob_.popTail(tid);
        scrubInst(*inst, /*restore_map=*/false);
    }

    t.intMap.reset();
    t.fpMap.reset();
    RAT_ASSERT(t.intRegsHeld == 0 && t.fpRegsHeld == 0,
               "registers leaked across runahead exit");
    RAT_ASSERT(t.icount == 0, "icount leaked across runahead exit");
    t.pendingL2Misses = 0;

    // The engine ends the episode (variant training, runahead-cache
    // clear, useless-episode classification) and hands the checkpoint
    // back for the core to restore.
    const runahead::RunaheadEngine::ExitOutcome out = raEngine_.exit(
        tid, mem_.threadStats(tid).raMemPrefetches +
                 mem_.threadStats(tid).raL2Prefetches);
    if (out.useless)
        ++stats_[tid].uselessRunaheadEpisodes;
    predictor_.restoreHistory(tid, out.histCheckpoint);

    // Observability: the finished episode as an annotated span plus a
    // length-histogram sample. Entry during warmup is fine: cycle_ is
    // monotonic across the stats reset, so the length stays exact.
    if (sampler_)
        sampler_->noteEpisode(cycle_ - raTrace_[tid].enteredAt);
    if (traceMask_ & obs::kCatRunahead) {
        // Saturate: the stats reset at the warmup->measure boundary can
        // land inside an episode, making the entry snapshot larger.
        const std::uint64_t entry = raTrace_[tid].pseudoRetiredAtEntry;
        const std::uint64_t now = stats_[tid].pseudoRetired;
        tracer_->record(tid, obs::EventKind::RunaheadEpisode,
                        raTrace_[tid].enteredAt, cycle_,
                        raTrace_[tid].triggerPc,
                        now >= entry ? now - entry : now,
                        out.useless ? 1 : 0);
    }

    t.waitingBranch = false;
    t.nextSeq = out.resumeSeq;
    t.lastFetchLine = ~Addr{0};
    t.fetchBlockedUntil = cycle_ + config_.mispredictRedirect;
}

// ---------------------------------------------------------------------------
// Squash machinery
// ---------------------------------------------------------------------------

void
SmtCore::scrubInst(DynInst &inst, bool restore_map)
{
    ThreadState &t = threads_[inst.tid];

    switch (inst.status) {
      case InstStatus::InFetchQueue:
        RAT_ASSERT(t.icount > 0, "icount underflow on scrub");
        --t.icount;
        break;
      case InstStatus::InQueue:
        queueOf(iqClassOf(inst.op.op)).remove(inst);
        --t.iqCount[static_cast<unsigned>(iqClassOf(inst.op.op))];
        RAT_ASSERT(t.icount > 0, "icount underflow on scrub");
        --t.icount;
        break;
      case InstStatus::Executing:
      case InstStatus::Complete:
        break;
      case InstStatus::Retired:
        panic("scrubbing a retired instruction");
    }

    if (inst.renamed && trace::isMemOp(inst.op.op))
        lsq_.remove(inst);

    if (inst.countedL2Miss) {
        RAT_ASSERT(t.pendingL2Misses > 0, "pending L2 miss underflow");
        --t.pendingL2Misses;
        inst.countedL2Miss = false;
    }

    if (restore_map && inst.renamed && inst.op.hasDst) {
        // Reverse-order walk restore (FLUSH path). A saved mapping is
        // only valid while that register still holds the same
        // allocation; if the previous producer committed since, its
        // value lives in the architectural backing instead.
        MapEntry restore = inst.prevMap;
        if (isPhysEntry(restore)) {
            const auto r = static_cast<PhysReg>(restore);
            PhysRegFile &file = fileOf(inst.dstIsFp);
            if (!file.isAllocated(r) ||
                file.allocGen(r) != inst.prevMapGen) {
                restore = kMapArch;
            }
        }
        mapOf(inst.tid, inst.dstIsFp).set(inst.op.dst, restore);
    }
    if (inst.hasDstReg) {
        fileOf(inst.dstIsFp).release(inst.dstPhys);
        if (inst.dstIsFp)
            --t.fpRegsHeld;
        else
            --t.intRegsHeld;
        inst.hasDstReg = false;
    }

    if (t.waitingBranch && t.blockingBranch == inst.handle())
        t.waitingBranch = false;

    ++stats_[inst.tid].squashedInsts;
    inst.status = InstStatus::Retired;
    unlinkSched(inst);
    pool_.release(&inst);
}

void
SmtCore::squashYoungerThan(ThreadId tid, InstSeq seq)
{
    ThreadState &t = threads_[tid];

    while (!t.fetchQueue.empty()) {
        DynInst *inst = t.fetchQueue.tail();
        if (inst->op.seq <= seq)
            break;
        t.fetchQueue.pop_back();
        scrubInst(*inst, /*restore_map=*/true);
    }
    while (!rob_.empty(tid)) {
        DynInst *inst = rob_.tail(tid);
        if (inst->op.seq <= seq)
            break;
        rob_.popTail(tid);
        scrubInst(*inst, /*restore_map=*/true);
    }

    t.nextSeq = seq + 1;
    t.lastFetchLine = ~Addr{0};
    t.fetchBlockedUntil = std::max(t.fetchBlockedUntil, cycle_ + Cycle{1});
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

bool
SmtCore::retireHead(ThreadId tid)
{
    DynInst *head = rob_.head(tid);
    if (!head)
        return false;

    if (raEngine_.inRunahead(tid)) {
        if (head->status != InstStatus::Complete)
            return false;
        // Pseudo-retire (Section 3.1): no architectural or memory update.
        if (trace::isStoreOp(head->op.op) && config_.rat.useRunaheadCache &&
            head->renamed) {
            raEngine_.notePseudoRetiredStore(
                tid, mem_.l1d().lineAlign(head->op.effAddr),
                /*data_valid=*/!head->inv);
        }
        releaseDest(*head, /*make_inv=*/head->inv);
        if (trace::isMemOp(head->op.op))
            lsq_.remove(*head);
        rob_.popHead(tid);
        ++stats_[tid].pseudoRetired;
        head->status = InstStatus::Retired;
        unlinkSched(*head); // folded heads may still hold waiter nodes
        pool_.release(head);
        return true;
    }

    if (head->status == InstStatus::Complete) {
        if (trace::isStoreOp(head->op.op)) {
            const auto res =
                mem_.writeData(tid, head->op.effAddr, cycle_);
            if (res.rejected) {
                // Write-buffer/MSHR pressure stalls commit. The retry
                // still walked the caches (LRU/stat updates), so this
                // cycle did work and may not be skipped.
                tickActivity_ = true;
                return false;
            }
        }
        if (sampler_ && head->issuedAt)
            sampler_->noteIssueToRetire(cycle_ - head->issuedAt);
        if (traceMask_ & obs::kCatSched) {
            tracer_->record(tid, obs::EventKind::Retire, cycle_, cycle_,
                            head->op.pc);
        }
        releaseDest(*head, /*make_inv=*/false);
        if (trace::isMemOp(head->op.op))
            lsq_.remove(*head);
        rob_.popHead(tid);
        ++stats_[tid].committedInsts;
        head->status = InstStatus::Retired;
        unlinkSched(*head); // no-op for committed insts; keeps invariant
        pool_.release(head);
        return true;
    }

    // Head not complete. A long-latency load blocking the head is the
    // runahead entry trigger (Section 3.1), gated by the engine (the
    // Fig. 4 suppression set plus the selected variant's entry veto).
    if (runaheadEnabled(config_.policy) &&
        trace::isLoadOp(head->op.op) && head->memIssued &&
        head->longLatency && raEngine_.mayEnter(tid, head->op)) {
        enterRunahead(tid, *head);
        return true; // consumed a commit slot taking the checkpoint
    }
    return false;
}

void
SmtCore::commitStage()
{
    unsigned budget = config_.commitWidth;
    const unsigned n = config_.numThreads;
    unsigned slot = commitRR_;
    for (unsigned i = 0; i < n && budget > 0; ++i) {
        const auto tid = static_cast<ThreadId>(slot);
        if (++slot >= n)
            slot = 0;
        while (budget > 0 && retireHead(tid)) {
            --budget;
            tickActivity_ = true;
        }
    }
    commitRR_ = commitRR_ + 1 >= n ? 0 : commitRR_ + 1;
}

// ---------------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------------

bool
SmtCore::tryIssueInst(DynInst &inst)
{
    ThreadState &t = threads_[inst.tid];
    const trace::OpClass op = inst.op.op;
    const bool in_ra = raEngine_.inRunahead(inst.tid);

    auto start_execution = [&](Cycle complete_at) {
        ++stats_[inst.tid].executedInsts;
        if (in_ra)
            raEngine_.noteExecutedInRunahead();
        queueOf(iqClassOf(op)).remove(inst);
        --t.iqCount[static_cast<unsigned>(iqClassOf(op))];
        RAT_ASSERT(t.icount > 0, "icount underflow on issue");
        --t.icount;
        inst.status = InstStatus::Executing;
        inst.issuedAt = cycle_;
        if (traceMask_ & obs::kCatSched) {
            tracer_->record(inst.tid, obs::EventKind::Issue, cycle_,
                            complete_at, inst.op.pc);
        }
        inst.completeAt = complete_at;
        completions_.push({complete_at, inst.handle()});
    };

    if (trace::isLoadOp(op)) {
        const Addr line = mem_.l1d().lineAlign(inst.op.effAddr);

        // In-flight store-to-load communication (same thread): walk
        // only the thread's in-flight stores, oldest to youngest,
        // stopping at program order (self).
        DynInst *match = nullptr;
        for (DynInst *other = lsq_.storeHead(inst.tid);
             other != nullptr && other->uid < inst.uid;
             other = other->lsqStoreNext) {
            if (mem_.l1d().lineAlign(other->op.effAddr) == line)
                match = other; // keep youngest older match
        }
        if (match) {
            if (match->inv) {
                foldInst(inst); // INV store data propagates to the load
                return false;
            }
            if (match->status != InstStatus::Complete) {
                // Pending or executing: wait for the store's data.
                inst.depStoreUid = match->uid;
                linkStoreDependent(*match, inst);
                return false;
            }
            // Forward from the completed store.
            if (!memUnits_.tryIssue(cycle_, 1))
                return false;
            start_execution(cycle_ + 1);
            inst.forwarded = true;
            return true;
        }

        // Communication from pseudo-retired runahead stores (the
        // runahead cache, Section 3.3).
        if (in_ra && config_.rat.useRunaheadCache) {
            bool data_valid = false;
            if (raEngine_.lookupStoreLine(inst.tid, line, data_valid)) {
                if (!data_valid) {
                    foldInst(inst);
                    return false;
                }
                if (!memUnits_.tryIssue(cycle_, 1))
                    return false;
                start_execution(cycle_ + 1);
                inst.forwarded = true;
                return true;
            }
        }

        // Fig. 4 "no prefetch" ablation: runahead loads may not touch
        // the L2 or memory; would-be L2 misses fold without prefetching
        // and are barred from re-triggering runahead after recovery.
        if (in_ra && config_.rat.disablePrefetch) {
            const auto level = mem_.probe(inst.op.effAddr, cycle_);
            if (level != mem::HitLevel::L1) {
                raEngine_.suppressLoad(inst.tid, inst.op.seq);
                foldInst(inst);
                return false;
            }
        }

        if (!memUnits_.tryIssue(cycle_, 1))
            return false;
        const auto res = mem_.readData(inst.tid, inst.op.effAddr, cycle_,
                                       /*speculative=*/in_ra);
        if (res.rejected)
            return true; // port burned; retry next cycle
        inst.memIssued = true;
        inst.memLevel = res.level;
        // Long-latency = fresh L2 miss, or a merge with an in-flight
        // fill whose data is still far away. Both behave as "the L2
        // missed" for runahead and the long-latency policies.
        inst.longLatency =
            res.level == mem::HitLevel::Memory ||
            res.completeAt > cycle_ + Cycle{mem_.l1d().latency() +
                                            mem_.l2().latency() + 2};

        if (in_ra && inst.longLatency) {
            // The access already installed/merged the line fill: that is
            // the prefetch. The load itself is invalidated (Section 3.2).
            ++stats_[inst.tid].executedInsts; // the AGU + access ran
            raEngine_.noteExecutedInRunahead();
            foldInst(inst);
            return true;
        }
        start_execution(res.completeAt);
        if (!in_ra && inst.longLatency) {
            if (sampler_)
                sampler_->noteMissLatency(res.completeAt - cycle_);
            inst.countedL2Miss = true;
            ++t.pendingL2Misses;
            l2Detections_.push(
                {cycle_ + mem_.l1d().latency() + mem_.l2().latency(),
                 inst.handle()});
        }
        return true;
    }

    if (trace::isStoreOp(op)) {
        if (!memUnits_.tryIssue(cycle_, 1))
            return false;
        inst.memIssued = true;
        start_execution(cycle_ + 1); // AGU; memory written at commit
        return true;
    }

    FuncUnitPool &pool = poolOf(op);
    if (!pool.tryIssue(cycle_, fuOccupancy(op)))
        return false;
    if (trace::isFpComputeOp(op))
        t.lastFpIssue = cycle_;
    start_execution(cycle_ + opLatency(op));
    return true;
}

void
SmtCore::issueStage()
{
    // Event-driven: take oldest-first from the incrementally maintained
    // ready queue. Entries are validated lazily — instructions folded
    // or squashed since insertion are dropped here; instructions that
    // stay ready but lose arbitration (port/FU conflicts) keep their
    // place for the next cycle.
    // Any queued candidate — even a stale or arbitration-blocked one —
    // means this cycle examined scheduler state and the next may too.
    if (!readyQ_.empty())
        tickActivity_ = true;

    // Nothing in tryIssueInst inserts into the ready queue (a fold
    // there only feeds foldQueue_), so the visited prefix [0, next)
    // compacts in place into [0, kept).
    unsigned budget = config_.issueWidth;
    const std::size_t queued = readyQ_.size();
    std::size_t next = 0;
    std::size_t kept = 0;
    for (; budget > 0 && next < queued; ++next) {
        const ReadyEntry e = readyQ_[next];
        ++sched_.readySelectVisits;
        DynInst *inst = pool_.get(e.inst);
        if (!inst || inst->uid != e.uid)
            continue; // squashed (and possibly recycled) since insertion
        if (inst->status != InstStatus::InQueue || !inst->allSrcsReady())
            continue; // folded since insertion
        if (tryIssueInst(*inst))
            --budget;
        RAT_ASSERT(readyQ_.size() == queued,
                   "ready queue grew while issue walked it");
        if (inst->status == InstStatus::InQueue && inst->allSrcsReady())
            readyQ_[kept++] = e; // lost arbitration: still ready
    }
    readyQ_.erase(readyQ_.begin() + static_cast<std::ptrdiff_t>(kept),
                  readyQ_.begin() + static_cast<std::ptrdiff_t>(next));

    // Drain INV cascades started by at-issue folding.
    drainFolds();
}

// ---------------------------------------------------------------------------
// Rename / dispatch
// ---------------------------------------------------------------------------

bool
SmtCore::renameOne(ThreadId tid)
{
    ThreadState &t = threads_[tid];
    DynInst *inst = t.fetchQueue.head();
    if (!inst)
        return false;
    if (inst->renameReadyAt > cycle_)
        return false;
    if (rob_.full())
        return false;

    const trace::OpClass op = inst->op.op;
    const IqClass cls = iqClassOf(op);

    // Resolve source mappings (also needed to decide runahead folding).
    inst->numSrcs = 0;
    bool any_src_inv = false;
    auto add_src = [&](ArchReg r, bool fp) {
        const MapEntry e = mapOf(tid, fp).get(r);
        const unsigned i = inst->numSrcs++;
        inst->srcIsFp[i] = fp;
        if (e == kMapArch) {
            inst->srcState[i] = SrcState::Ready;
        } else if (e == kMapInv) {
            inst->srcState[i] = SrcState::Invalid;
            any_src_inv = true;
        } else {
            inst->srcTag[i] = e;
            inst->srcState[i] = fileOf(fp).isReady(static_cast<PhysReg>(e))
                                    ? SrcState::Ready
                                    : SrcState::Waiting;
        }
    };
    for (unsigned i = 0; i < inst->op.numSrcInt; ++i)
        add_src(inst->op.srcInt[i], false);
    for (unsigned i = 0; i < inst->op.numSrcFp; ++i)
        add_src(inst->op.srcFp[i], true);

    // Runahead folding decision (Section 3.3): INV sources, FP compute
    // under the FP-drop optimisation, and synchronization ops all fold.
    const bool in_ra = raEngine_.inRunahead(tid);
    bool fold = false;
    if (in_ra) {
        fold = any_src_inv ||
               (config_.rat.dropFpInRunahead &&
                trace::isFpComputeOp(op)) ||
               op == trace::OpClass::Lock || op == trace::OpClass::Unlock;
    } else {
        RAT_ASSERT(!any_src_inv, "INV mapping outside runahead");
    }

    // FP loads under FP-drop still execute for their prefetch effect but
    // take no FP destination register (Section 3.3).
    const bool prefetch_only =
        in_ra && config_.rat.dropFpInRunahead && !fold &&
        op == trace::OpClass::FpLoad;
    const bool needs_dst_reg = inst->op.hasDst && !fold && !prefetch_only;

    if (!fold) {
        if (queueOf(cls).full())
            return false;
        if (trace::isMemOp(op) && lsq_.full())
            return false;
        if (needs_dst_reg && fileOf(inst->op.dstIsFp).freeCount() == 0)
            return false;
    }

    // Commit the rename.
    t.fetchQueue.pop_front();
    inst->renamed = true;
    inst->runahead = in_ra;
    inst->dstIsFp = inst->op.dstIsFp;
    if (traceMask_ & obs::kCatSched) {
        tracer_->record(tid, obs::EventKind::Rename, cycle_, cycle_,
                        inst->op.pc);
    }

    if (fold) {
        inst->inv = true;
        inst->folded = true;
        inst->status = InstStatus::Complete;
        ++stats_[tid].invalidInsts;
        RAT_ASSERT(t.icount > 0, "icount underflow on rename fold");
        --t.icount;
        if (inst->op.hasDst) {
            inst->prevMap =
                mapOf(tid, inst->op.dstIsFp).set(inst->op.dst, kMapInv);
            if (isPhysEntry(inst->prevMap)) {
                inst->prevMapGen = fileOf(inst->op.dstIsFp).allocGen(
                    static_cast<PhysReg>(inst->prevMap));
            }
        }
        if (trace::isControlOp(op) && t.waitingBranch &&
            t.blockingBranch == inst->handle()) {
            t.waitingBranch = false;
            t.fetchBlockedUntil =
                std::max(t.fetchBlockedUntil, cycle_ + Cycle{1});
        }
        rob_.push(*inst);
        return true;
    }

    if (inst->op.hasDst) {
        if (needs_dst_reg) {
            const PhysReg r = fileOf(inst->op.dstIsFp).allocate();
            inst->dstPhys = r;
            inst->hasDstReg = true;
            if (inst->op.dstIsFp)
                ++t.fpRegsHeld;
            else
                ++t.intRegsHeld;
            inst->prevMap =
                mapOf(tid, inst->op.dstIsFp).set(inst->op.dst, r);
        } else {
            // prefetch-only FP load: consumers see INV.
            inst->prevMap =
                mapOf(tid, inst->op.dstIsFp).set(inst->op.dst, kMapInv);
        }
        if (isPhysEntry(inst->prevMap)) {
            inst->prevMapGen = fileOf(inst->op.dstIsFp).allocGen(
                static_cast<PhysReg>(inst->prevMap));
        }
    }

    rob_.push(*inst);
    if (trace::isMemOp(op))
        lsq_.insert(*inst);
    queueOf(cls).insert(*inst);
    ++t.iqCount[static_cast<unsigned>(cls)];
    inst->status = InstStatus::InQueue;

    // Event-driven dispatch: register each still-waiting source on its
    // producer's waiter list; instructions arriving fully ready go
    // straight onto the ready queue.
    for (unsigned i = 0; i < inst->numSrcs; ++i) {
        if (inst->srcState[i] == SrcState::Waiting)
            linkWaiter(*inst, i);
    }
    pushReady(*inst);
    return true;
}

void
SmtCore::renameStage()
{
    const unsigned n = config_.numThreads;
    unsigned budget = config_.renameWidth;
    bool stalled[kMaxThreads] = {};
    unsigned stalled_count = 0;

    unsigned rr = renameRR_ % n;
    while (budget > 0 && stalled_count < n) {
        const auto tid = static_cast<ThreadId>(rr);
        if (++rr >= n)
            rr = 0;
        if (stalled[tid])
            continue;
        if (renameOne(tid)) {
            --budget;
            tickActivity_ = true;
        } else {
            stalled[tid] = true;
            ++stalled_count;
        }
    }
    renameRR_ = renameRR_ + 1 >= n ? 0 : renameRR_ + 1;
}

// ---------------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------------

trace::MicroOp
SmtCore::traceAt(ThreadState &t, InstSeq seq)
{
    const InstSeq base = seq & ~InstSeq{kTraceMemoBlock - 1};
    const std::size_t slot = seq & (kTraceMemoSize - 1);
    const std::size_t first = slot & ~(kTraceMemoBlock - 1);
    InstSeq &held = t.traceMemoBase[first / kTraceMemoBlock];
    if (held != base) {
        t.gen->scanOps(base, kTraceMemoBlock, &t.traceMemo[first]);
        held = base;
    }
    return t.traceMemo[slot];
}

void
SmtCore::fetchThread(ThreadId tid, unsigned &budget)
{
    ThreadState &t = threads_[tid];
    Addr group_pc = 0;
    unsigned group_ops = 0;
    while (budget > 0 &&
           t.fetchQueue.size() < config_.fetchQueueEntries) {
        const trace::MicroOp op = traceAt(t, t.nextSeq);

        // Instruction-cache access on line crossings, with a
        // stream-buffer-style sequential prefetch of the next lines.
        const Addr line = mem_.l1i().lineAlign(op.pc);
        if (line != t.lastFetchLine) {
            const auto res = mem_.fetchInst(tid, op.pc, cycle_);
            if (res.rejected) {
                t.fetchBlockedUntil = cycle_ + 1;
                break;
            }
            t.lastFetchLine = line;
            const unsigned line_bytes = mem_.l1i().lineBytes();
            for (unsigned i = 1; i <= config_.ifetchPrefetchLines; ++i)
                mem_.prefetchInst(tid, line + i * line_bytes, cycle_);
            if (res.completeAt > cycle_ + Cycle{mem_.l1i().latency()}) {
                t.fetchBlockedUntil = res.completeAt;
                break;
            }
        }

        DynInst *inst = pool_.alloc(tid);
        inst->op = op;
        inst->fetchedAt = cycle_;
        inst->renameReadyAt = cycle_ + config_.frontendDelay;
        inst->status = InstStatus::InFetchQueue;

        bool stop = false;
        if (trace::isControlOp(op.op)) {
            Addr predicted_target = 0;
            bool target_known = false;
            switch (op.op) {
              case trace::OpClass::Branch:
                inst->pred = predictor_.predict(tid, op.pc);
                inst->predTaken = inst->pred.taken;
                break;
              case trace::OpClass::Call:
                inst->predTaken = true;
                t.ras.push(op.pc + 4);
                break;
              case trace::OpClass::Return:
                inst->predTaken = true;
                target_known = t.ras.pop(predicted_target);
                break;
              default:
                break;
            }
            if (inst->predTaken) {
                if (op.op != trace::OpClass::Return)
                    target_known = btb_.lookup(op.pc, predicted_target);
                if (!target_known) {
                    // Decode-time redirect bubble.
                    t.fetchBlockedUntil =
                        cycle_ + config_.btbMissPenalty;
                }
                stop = true; // taken control flow ends the fetch group
            }
            if (op.op == trace::OpClass::Branch &&
                inst->predTaken != op.taken) {
                inst->mispredicted = true;
                t.waitingBranch = true;
                t.blockingBranch = inst->handle();
                stop = true;
            }
        }

        t.fetchQueue.push_back(*inst);
        ++t.icount;
        ++stats_[tid].fetchedInsts;
        ++t.nextSeq;
        --budget;
        if (group_ops++ == 0)
            group_pc = op.pc;
        if (stop)
            break;
    }
    if ((traceMask_ & obs::kCatFetch) && group_ops) {
        tracer_->record(tid, obs::EventKind::FetchGroup, cycle_, cycle_,
                        group_pc, group_ops);
    }
}

void
SmtCore::fetchStage()
{
    fetchOrder_.clear();
    policy_.fetchOrder(*this, fetchOrder_);

    unsigned budget = config_.fetchWidth;
    unsigned threads_used = 0;
    for (const ThreadId tid : fetchOrder_) {
        if (budget == 0 || threads_used >= config_.fetchThreads)
            break;
        ThreadState &t = threads_[tid];
        if (t.waitingBranch || t.fetchBlockedUntil > cycle_)
            continue;
        if (t.fetchQueue.size() >= config_.fetchQueueEntries)
            continue;
        if (config_.rat.noFetchInRunahead && raEngine_.inRunahead(tid))
            continue; // Fig. 4 resource-availability ablation
        if (raEngine_.fetchSuppressed(tid))
            continue; // variant-gated DrainOnly episode
        if (!policy_.mayFetch(*this, tid))
            continue;
        // Entering fetchThread always does work: it either fetches or
        // probes the I-cache (LRU/stat updates) before blocking.
        tickActivity_ = true;
        const unsigned before = budget;
        fetchThread(tid, budget);
        if (budget < before)
            ++threads_used;
    }
}

// ---------------------------------------------------------------------------
// Per-cycle sampling
// ---------------------------------------------------------------------------

void
SmtCore::sampleCycle()
{
    for (unsigned tid = 0; tid < config_.numThreads; ++tid) {
        ThreadState &t = threads_[tid];
        ThreadStats &s = stats_[tid];
        const unsigned held = t.intRegsHeld + t.fpRegsHeld;
        if (raEngine_.inRunahead(static_cast<ThreadId>(tid))) {
            ++s.runaheadCycles;
            s.runaheadRegCycles += held;
        } else {
            ++s.normalCycles;
            s.normalRegCycles += held;
        }
    }

    // Telemetry window boundary: cycle_ + 1 == nextAt means the window
    // ending at nextAt is fully simulated once this tick retires.
    if (sampler_ && cycle_ + 1 >= sampler_->nextAt())
        takeTelemetrySample();
    if (digests_ && cycle_ + 1 >= digests_->nextAt())
        digests_->sampleAt(*this);
}

void
SmtCore::takeTelemetrySample()
{
    std::uint64_t committed = 0, executed = 0;
    std::uint64_t rob = 0, iq = 0, lsq = 0;
    for (unsigned t = 0; t < config_.numThreads; ++t) {
        const auto tid = static_cast<ThreadId>(t);
        committed += stats_[t].committedInsts;
        executed += stats_[t].executedInsts;
        rob += robOccupancy(tid);
        lsq += lsqOccupancy(tid);
        for (unsigned cls = 0; cls < kNumIqClasses; ++cls)
            iq += iqOccupancy(static_cast<IqClass>(cls), tid);
    }
    sampler_->sampleAt(committed, executed,
                       raEngine_.stats().executedInRunahead, rob, iq,
                       lsq);
}

} // namespace rat::core
