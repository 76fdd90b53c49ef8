#include "check/digest.hh"

#include <sstream>

#include "check/fnv.hh"
#include "core/smt_core.hh"
#include "runahead/racache.hh"

namespace rat::check {

namespace {

/**
 * Sink adapters: the one enumeration below feeds either the hasher or
 * the textual dump, so the digest and the bisector's state dumps can
 * never drift apart.
 */
struct HashSink {
    Fnv64 h;
    void field(const char *, std::uint64_t v) { h.u64(v); }
    void section(const char *) {}
};

struct TextSink {
    std::ostringstream os;
    void
    field(const char *name, std::uint64_t v)
    {
        os << "  " << name << " = " << v << "\n";
    }
    void section(const char *name) { os << name << ":\n"; }
};

/**
 * One live instruction's mode-invariant fields. Deliberately omitted:
 * uid and depStoreUid (allocation-order artifacts), iqPos (queue slot
 * assignment), physical register numbers (free-list order), scheduler
 * links (event-mode only).
 */
template <typename Sink>
void
visitInst(Sink &sink, const core::DynInst &inst)
{
    sink.field("seq", inst.op.seq);
    sink.field("op", static_cast<std::uint64_t>(inst.op.op));
    sink.field("status", static_cast<std::uint64_t>(inst.status));
    sink.field("inv", inst.inv);
    sink.field("runahead", inst.runahead);
    sink.field("folded", inst.folded);
    sink.field("renamed", inst.renamed);
    sink.field("hasDstReg", inst.hasDstReg);
    sink.field("memIssued", inst.memIssued);
    sink.field("longLatency", inst.longLatency);
    sink.field("forwarded", inst.forwarded);
    sink.field("countedL2Miss", inst.countedL2Miss);
    sink.field("inLsq", inst.inLsq);
    sink.field("predTaken", inst.predTaken);
    sink.field("mispredicted", inst.mispredicted);
    sink.field("completeAt", inst.completeAt);
    sink.field("numSrcs", inst.numSrcs);
    for (unsigned s = 0; s < inst.numSrcs; ++s)
        sink.field("srcState",
                   static_cast<std::uint64_t>(inst.srcState[s]));
}

/**
 * A counter struct through its table, less the per-cycle integrals:
 * skipTo() integrates those span-at-once before the boundary loop, so
 * their value at an interior boundary is a host-mode artifact. Any
 * real divergence they could witness stems from digested
 * instantaneous state.
 */
template <typename Sink, typename Stats, std::size_t N>
void
visitCounters(Sink &sink, const Stats &stats,
              const CounterField<Stats> (&table)[N])
{
    for (const CounterField<Stats> &c : table) {
        if (!c.perCycle)
            sink.field(c.name, stats.*c.member);
    }
}

template <typename Sink>
void
visitMap(Sink &sink, const core::RenameMap &map,
         const core::PhysRegFile &file)
{
    for (ArchReg a = 0; a < kNumArchRegs; ++a) {
        const core::MapEntry e = map.get(a);
        // Entry kind + producer readiness, never the register number.
        if (e == core::kMapArch) {
            sink.field("map.arch", 0);
        } else if (e == core::kMapInv) {
            sink.field("map.inv", 1);
        } else {
            sink.field("map.phys",
                       2 + (file.isAllocated(e) && file.isReady(e)));
        }
    }
}

} // namespace

template <typename Sink>
void
StateHasher::visit(Sink &sink, const core::SmtCore &core)
{
    const Cycle now = core.cycle_;

    sink.section("core");
    sink.field("robUsed", core.rob_.used());
    sink.field("lsqUsed", core.lsq_.used());
    for (unsigned cls = 0; cls < core::kNumIqClasses; ++cls)
        sink.field("iqSize", core.iqs_[cls].size());
    sink.field("intFree", core.intRegs_.freeCount());
    sink.field("intAllocated", core.intRegs_.allocatedCount());
    sink.field("fpFree", core.fpRegs_.freeCount());
    sink.field("fpAllocated", core.fpRegs_.allocatedCount());

    for (ThreadId tid = 0; tid < core.config_.numThreads; ++tid) {
        const auto &t = core.threads_[tid];
        sink.section("thread");
        sink.field("nextSeq", t.nextSeq);
        sink.field("fetchBlockedUntil", t.fetchBlockedUntil);
        sink.field("waitingBranch", t.waitingBranch);
        sink.field("lastFetchLine", t.lastFetchLine);
        sink.field("icount", t.icount);
        for (unsigned cls = 0; cls < core::kNumIqClasses; ++cls)
            sink.field("iqCount", t.iqCount[cls]);
        sink.field("intRegsHeld", t.intRegsHeld);
        sink.field("fpRegsHeld", t.fpRegsHeld);
        sink.field("pendingL2Misses", t.pendingL2Misses);
        sink.field("lastFpIssue", t.lastFpIssue);
        sink.field("lsqCount", core.lsq_.threadCount(tid));
        sink.field("lsqStores", core.lsq_.storeCount(tid));
        sink.field("predictorHistory", core.predictor_.history(tid));

        sink.section("thread.stats");
        visitCounters(sink, core.stats_[tid], core::kThreadStatsCounters);
        sink.section("thread.mem");
        visitCounters(sink, core.mem_.threadStats(tid),
                      mem::kThreadMemStatsCounters);

        sink.section("thread.maps");
        visitMap(sink, t.intMap, core.intRegs_);
        visitMap(sink, t.fpMap, core.fpRegs_);

        sink.section("thread.fetchq");
        for (const core::DynInst *inst = t.fetchQueue.head(); inst;
             inst = inst->seqNext)
            visitInst(sink, *inst);
        sink.section("thread.rob");
        for (const core::DynInst *inst = core.rob_.head(tid); inst;
             inst = inst->seqNext)
            visitInst(sink, *inst);

        sink.section("thread.runahead");
        const auto v = core.raEngine_.episodeView(tid);
        sink.field("active", v.active);
        sink.field("drainOnly", v.drainOnly);
        sink.field("pendingDrain", v.pendingDrain);
        sink.field("exitAt", v.active ? v.exitAt : 0);
        sink.field("fillAt", v.active ? v.fillAt : 0);
        sink.field("resumeSeq", v.active ? v.resumeSeq : 0);
        sink.field("entryPc", v.active ? v.entryPc : 0);
        sink.field("histCheckpoint", v.active ? v.histCheckpoint : 0);
        sink.field("prefetchSnapshot", v.active ? v.prefetchSnapshot : 0);
        sink.field("suppressedLoads", v.suppressedLoads);
        sink.field("suppressedHash", v.suppressedHash);
        sink.field("raCacheLines", core.raEngine_.cache().occupancy(tid));
    }

    sink.section("engine.stats");
    visitCounters(sink, core.raEngine_.stats(),
                  runahead::kEngineStatsCounters);

    sink.section("mem");
    const struct {
        const char *occ;
        const char *fill;
        const mem::MshrFile &file;
    } mshrs[] = {
        {"l1iMshrOcc", "l1iMshrFill", core.mem_.l1iMshrs()},
        {"l1dMshrOcc", "l1dMshrFill", core.mem_.l1dMshrs()},
        {"l2MshrOcc", "l2MshrFill", core.mem_.l2Mshrs()},
    };
    for (const auto &m : mshrs) {
        sink.field(m.occ, m.file.occupancy(now));
        sink.field(m.fill, m.file.earliestCompletion(now));
    }
    sink.field("l1iHits", core.mem_.l1i().hits());
    sink.field("l1iMisses", core.mem_.l1i().misses());
    sink.field("l1iEvictions", core.mem_.l1i().evictions());
    sink.field("l1dHits", core.mem_.l1d().hits());
    sink.field("l1dMisses", core.mem_.l1d().misses());
    sink.field("l1dEvictions", core.mem_.l1d().evictions());
    sink.field("l2Hits", core.mem_.l2().hits());
    sink.field("l2Misses", core.mem_.l2().misses());
    sink.field("l2Evictions", core.mem_.l2().evictions());
}

std::uint64_t
StateHasher::digest(const core::SmtCore &core)
{
    HashSink sink;
    visit(sink, core);
    return sink.h.value();
}

std::string
StateHasher::describe(const core::SmtCore &core)
{
    TextSink sink;
    visit(sink, core);
    return sink.os.str();
}

void
DigestCollector::sampleAt(const core::SmtCore &core)
{
    obs::DigestSample s;
    s.cycle = nextAt_;
    s.digest = StateHasher::digest(core);
    track_.samples.push_back(s);
    if (nextAt_ == captureAt_)
        capturedDump_ = StateHasher::describe(core);
    nextAt_ += window_;
}

} // namespace rat::check
