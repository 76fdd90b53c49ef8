#include "runahead/engine.hh"

#include "common/logging.hh"

namespace rat::runahead {

namespace {

/**
 * Strong per-element mix (splitmix64 finalizer) summed commutatively:
 * the suppression sets live in unordered containers, so their view and
 * digest contribution must not depend on iteration order.
 */
std::uint64_t
mixSeq(std::uint64_t v)
{
    v += 0x9E3779B97F4A7C15ull;
    v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ull;
    v = (v ^ (v >> 27)) * 0x94D049BB133111EBull;
    return v ^ (v >> 31);
}

} // namespace

RunaheadEngine::RunaheadEngine(const core::RatConfig &cfg)
    : policy_(makeRunaheadPolicy(cfg)), raCache_(cfg.runaheadCacheLines)
{
}

RunaheadEngine::~RunaheadEngine() = default;

bool
RunaheadEngine::mayEnter(ThreadId tid, const trace::MicroOp &load)
{
    ThreadEpisode &t = threads_[tid];
    // Fig. 4 no-prefetch ablation: loads observed to miss L2 during a
    // prefetch-less episode must not re-trigger runahead (keeps episode
    // lengths identical to the prefetching run).
    if (!t.suppressedLoads.empty() && t.suppressedLoads.count(load.seq))
        return false;
    const EntryDecision d = policy_->entryDecision(tid, load);
    if (d == EntryDecision::Veto) {
        if (t.lastVetoSeq != load.seq) {
            t.lastVetoSeq = load.seq;
            ++stats_.suppressedEntries;
        }
        return false;
    }
    t.pendingDrain = d == EntryDecision::DrainOnly;
    return true;
}

void
RunaheadEngine::enter(ThreadId tid, const trace::MicroOp &load, Cycle now,
                      Cycle fill_at, std::uint64_t hist_checkpoint,
                      std::uint64_t prefetch_count)
{
    ThreadEpisode &t = threads_[tid];
    RAT_ASSERT(!t.active, "nested runahead entry");
    RAT_ASSERT(fill_at != kNoCycle,
               "blocking load has no completion time");
    t.active = true;
    t.drainOnly = t.pendingDrain;
    t.pendingDrain = false;
    t.resumeSeq = load.seq;
    t.entryPc = load.pc;
    t.fillAt = fill_at;
    t.exitAt = policy_->exitHorizon(now, fill_at);
    t.histCheckpoint = hist_checkpoint;
    t.prefetchSnapshot = prefetch_count;
    ++stats_.episodes;
    if (t.drainOnly)
        ++stats_.drainEpisodes;
}

RunaheadEngine::ExitOutcome
RunaheadEngine::exit(ThreadId tid, std::uint64_t prefetch_count)
{
    ThreadEpisode &t = threads_[tid];
    RAT_ASSERT(t.active, "runahead exit without an episode");

    const std::uint64_t episode_prefetches =
        prefetch_count - t.prefetchSnapshot;
    ExitOutcome out;
    out.resumeSeq = t.resumeSeq;
    out.histCheckpoint = t.histCheckpoint;
    out.useless = episode_prefetches == 0;

    if (out.useless)
        ++stats_.uselessEpisodes;
    if (t.exitAt < t.fillAt)
        ++stats_.cappedExits;
    policy_->onEpisodeEnd(tid, t.entryPc, episode_prefetches,
                          /*full_episode=*/!t.drainOnly);

    raCache_.clear(tid);
    t.active = false;
    t.drainOnly = false;
    return out;
}

RunaheadEngine::EpisodeView
RunaheadEngine::episodeView(ThreadId tid) const
{
    const ThreadEpisode &t = threads_[tid];
    EpisodeView v;
    v.active = t.active;
    v.drainOnly = t.drainOnly;
    v.pendingDrain = t.pendingDrain;
    v.exitAt = t.exitAt;
    v.fillAt = t.fillAt;
    v.resumeSeq = t.resumeSeq;
    v.entryPc = t.entryPc;
    v.histCheckpoint = t.histCheckpoint;
    v.prefetchSnapshot = t.prefetchSnapshot;
    v.lastVetoSeq = t.lastVetoSeq;
    v.suppressedLoads = t.suppressedLoads.size();
    for (InstSeq seq : t.suppressedLoads)
        v.suppressedHash += mixSeq(seq);
    return v;
}

const char *
RunaheadEngine::variantName() const
{
    return policy_->name();
}

} // namespace rat::runahead
