/**
 * @file
 * Round-trip tests for the architectural checkpoint codec
 * (sim/checkpoint.hh): restore-then-run must be digest-identical to
 * run-through at every --digest-window boundary, across cycle skipping
 * and the runahead variants; the runahead engine's episode state must
 * survive its visit; corrupted blobs must be refused; the file key
 * must share checkpoints across the knobs the functional walk ignores
 * and split them on the knobs it depends on; restoreOrWalk must
 * restore a blob only into its own prewarm identity.
 */

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hh"
#include "report/serialize.hh"
#include "runahead/engine.hh"
#include "runahead/variant.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

const std::vector<std::string> kMix = {"art", "mcf"};

/** Short windows with digests at every 500-cycle boundary. */
SimConfig
ckptConfig()
{
    SimConfig cfg;
    cfg.core.numThreads = 2;
    cfg.core.policy = core::PolicyKind::Rat;
    cfg.prewarmInsts = 20000;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 4000;
    cfg.digestWindow = 500;
    return cfg;
}

/** Encode the functional state of @p cfg at its prewarm position. */
std::string
encodeAt(const SimConfig &cfg)
{
    Simulator walker(cfg, kMix);
    walker.smtCore().prewarm(cfg.prewarmInsts);
    const std::string blob = CheckpointCodec::encode(walker);
    EXPECT_FALSE(blob.empty());
    return blob;
}

/** run() on a restore of @p blob (prewarm replaced by the restore). */
SimResult
restoreAndRun(const SimConfig &cfg, const std::string &blob)
{
    SimConfig restored = cfg;
    restored.prewarmInsts = 0;
    Simulator sim(restored, kMix);
    std::string error;
    const bool ok = CheckpointCodec::restore(sim, blob, &error);
    EXPECT_TRUE(ok) << error;
    return sim.run();
}

void
expectIdentical(const SimResult &through, const SimResult &restored)
{
    // Digest-identical at every window boundary...
    ASSERT_TRUE(through.digest.enabled());
    ASSERT_EQ(through.digest.samples.size(),
              restored.digest.samples.size());
    EXPECT_TRUE(through.digest == restored.digest);
    // ...and bit-identical in the full serialized result.
    EXPECT_EQ(report::toJson(through).dump(),
              report::toJson(restored).dump());
    EXPECT_EQ(through.engine.episodes, restored.engine.episodes);
    EXPECT_EQ(through.engine.executedInRunahead,
              restored.engine.executedInRunahead);
}

TEST(Checkpoint, RestoreMatchesRunThroughAcrossHostKnobGrid)
{
    // One blob serves the whole grid: cycle skipping and the runahead
    // variant are both invisible to the functional walk (and excluded
    // from the file key).
    const std::string blob = encodeAt(ckptConfig());

    for (const bool skip : {true, false}) {
        for (const runahead::RaVariant variant :
             {runahead::RaVariant::Classic, runahead::RaVariant::Capped,
              runahead::RaVariant::UselessFilter}) {
            SimConfig cfg = ckptConfig();
            cfg.core.cycleSkipping = skip;
            cfg.core.rat.variant = variant;

            Simulator through(cfg, kMix);
            const SimResult a = through.run();
            const SimResult b = restoreAndRun(cfg, blob);
            SCOPED_TRACE(testing::Message()
                         << "skip=" << skip << " variant="
                         << runahead::raVariantName(variant));
            expectIdentical(a, b);
        }
    }
}

TEST(Checkpoint, RestoreMatchesAcrossPolicies)
{
    const std::string blob = encodeAt(ckptConfig());
    for (const core::PolicyKind policy :
         {core::PolicyKind::Icount, core::PolicyKind::Flush,
          core::PolicyKind::RatDcra}) {
        SimConfig cfg = ckptConfig();
        cfg.core.policy = policy;
        Simulator through(cfg, kMix);
        const SimResult a = through.run();
        const SimResult b = restoreAndRun(cfg, blob);
        expectIdentical(a, b);
    }
}

/**
 * The smallest IO RunaheadEngine::ckptVisit accepts: encoding appends
 * every value to `words`, decoding reads them back in the same order.
 */
struct WordIO {
    std::vector<std::uint64_t> words;
    bool decoding = false;
    std::size_t pos = 0;

    void
    word(std::uint64_t &v)
    {
        if (decoding)
            v = words.at(pos++);
        else
            words.push_back(v);
    }

    void
    size(std::size_t n)
    {
        std::uint64_t v = n;
        word(v);
        EXPECT_EQ(v, n);
    }

    template <typename T>
    void
    scalar(T &v)
    {
        auto w = static_cast<std::uint64_t>(v);
        word(w);
        v = static_cast<T>(w);
    }

    void
    sortedSet(std::unordered_set<InstSeq> &set)
    {
        std::vector<InstSeq> seqs(set.begin(), set.end());
        std::uint64_t n = seqs.size();
        word(n);
        seqs.resize(n);
        for (InstSeq &seq : seqs)
            word(seq);
        set = {seqs.begin(), seqs.end()};
    }
};

TEST(Checkpoint, EngineEpisodeStateRoundTrips)
{
    // Encoding needs an empty pipeline, so no blob the simulator
    // writes carries live episode state: the engine's visit is driven
    // directly. Under the useless-filter variant at threshold 1, one
    // useless episode turns its code region's later entries into
    // fetch-gated DrainOnly episodes.
    core::RatConfig rat;
    rat.variant = runahead::RaVariant::UselessFilter;
    rat.uselessFilterThreshold = 1;
    rat.uselessFilterReprobe = 0;
    const auto load = [](InstSeq seq) {
        trace::MicroOp op;
        op.seq = seq;
        op.pc = 0x4000;
        return op;
    };

    runahead::RunaheadEngine source(rat);
    // Thread 1: an ended episode that prefetched nothing.
    ASSERT_TRUE(source.mayEnter(1, load(50)));
    source.enter(1, load(50), 200, 500, 0x123, 3);
    source.exit(1, 3);
    // Thread 0: an active DrainOnly episode.
    ASSERT_TRUE(source.mayEnter(0, load(10)));
    source.enter(0, load(10), 100, 400, 0xABC, 7);
    // Thread 2: a DrainOnly decision no enter() has consumed yet.
    ASSERT_TRUE(source.mayEnter(2, load(99)));
    source.suppressLoad(0, 42);
    source.suppressLoad(0, 11);
    source.suppressLoad(3, 77);
    // Every field but lastVetoSeq now differs from a fresh engine's on
    // some thread (no variant vetoes an entry, so it never moves).
    ASSERT_TRUE(source.episodeView(0).active);
    ASSERT_TRUE(source.episodeView(0).drainOnly);
    ASSERT_TRUE(source.episodeView(2).pendingDrain);
    ASSERT_EQ(source.episodeView(1).resumeSeq, 50u);

    WordIO io;
    source.ckptVisit(io);
    runahead::RunaheadEngine target(rat);
    io.decoding = true;
    target.ckptVisit(io);
    EXPECT_EQ(io.pos, io.words.size());

    for (ThreadId tid = 0; tid < kMaxThreads; ++tid) {
        SCOPED_TRACE(testing::Message() << "thread " << unsigned{tid});
        const auto a = source.episodeView(tid);
        const auto b = target.episodeView(tid);
        EXPECT_EQ(a.active, b.active);
        EXPECT_EQ(a.drainOnly, b.drainOnly);
        EXPECT_EQ(a.pendingDrain, b.pendingDrain);
        EXPECT_EQ(a.exitAt, b.exitAt);
        EXPECT_EQ(a.fillAt, b.fillAt);
        EXPECT_EQ(a.resumeSeq, b.resumeSeq);
        EXPECT_EQ(a.entryPc, b.entryPc);
        EXPECT_EQ(a.histCheckpoint, b.histCheckpoint);
        EXPECT_EQ(a.prefetchSnapshot, b.prefetchSnapshot);
        EXPECT_EQ(a.lastVetoSeq, b.lastVetoSeq);
        EXPECT_EQ(a.suppressedLoads, b.suppressedLoads);
        EXPECT_EQ(a.suppressedHash, b.suppressedHash);
    }
}

TEST(Checkpoint, RefusesCorruptBlobs)
{
    const SimConfig cfg = ckptConfig();
    const std::string good = encodeAt(cfg);

    const auto refused = [&](std::string blob) {
        SimConfig restored = cfg;
        restored.prewarmInsts = 0;
        Simulator sim(restored, kMix);
        std::string error;
        const bool ok = CheckpointCodec::restore(sim, blob, &error);
        EXPECT_FALSE(error.empty() || ok);
        return !ok;
    };

    // Bad magic.
    std::string bad = good;
    bad[0] ^= 0x40;
    EXPECT_TRUE(refused(bad));

    // Flipped embedded digest (trailing u64): the restore-time
    // recomputation cannot match it.
    bad = good;
    bad[bad.size() - 4] ^= 0x01;
    EXPECT_TRUE(refused(bad));

    // The last thread's suppressed-load count, just before the digest,
    // raised past what the 8 remaining bytes can hold: refused before
    // anything is allocated for the elements.
    const std::size_t count_at = good.size() - 16;
    ASSERT_EQ(good.compare(count_at, 8, std::string(8, '\0')), 0);
    bad = good;
    bad.replace(count_at, 8, std::string(8, '\xff'));
    EXPECT_TRUE(refused(bad));

    // Truncation.
    EXPECT_TRUE(refused(good.substr(0, good.size() - 9)));
    EXPECT_TRUE(refused(std::string{}));
}

TEST(Checkpoint, EncodeLegalAtFastForwardPoints)
{
    // Encode is defined exactly at functional fast-forward points: a
    // freshly constructed simulator (position 0) and any prewarmed
    // position qualify, and the two positions produce distinct blobs.
    SimConfig cfg = ckptConfig();
    cfg.prewarmInsts = 0;
    Simulator fresh(cfg, kMix);
    const std::string at0 = CheckpointCodec::encode(fresh);
    EXPECT_FALSE(at0.empty());
    EXPECT_NE(at0, encodeAt(ckptConfig()));
}

TEST(Checkpoint, FileKeySharesAcrossTimingKnobs)
{
    const SimConfig base = ckptConfig();
    const std::uint64_t key =
        CheckpointCodec::fileKey(base, kMix, 20000);

    // Policy, runahead variant and ROB size don't touch the walk.
    SimConfig cfg = base;
    cfg.core.policy = core::PolicyKind::Flush;
    EXPECT_EQ(key, CheckpointCodec::fileKey(cfg, kMix, 20000));
    cfg = base;
    cfg.core.rat.variant = runahead::RaVariant::Capped;
    EXPECT_EQ(key, CheckpointCodec::fileKey(cfg, kMix, 20000));
    cfg = base;
    cfg.core.robEntries = 256;
    EXPECT_EQ(key, CheckpointCodec::fileKey(cfg, kMix, 20000));

    // Position, seed, workload and register-file sizes all do.
    EXPECT_NE(key, CheckpointCodec::fileKey(base, kMix, 24096));
    cfg = base;
    cfg.seed = 2;
    EXPECT_NE(key, CheckpointCodec::fileKey(cfg, kMix, 20000));
    EXPECT_NE(key, CheckpointCodec::fileKey(base, {"art", "gzip"},
                                            20000));
    cfg = base;
    cfg.core.intRegs = 256;
    EXPECT_NE(key, CheckpointCodec::fileKey(cfg, kMix, 20000));
}

TEST(Checkpoint, IncrementalWalkEncodesIdentically)
{
    // The registry walker prewarm()s incrementally between sample
    // positions; the blob it captures must equal a one-shot walk's.
    const SimConfig cfg = ckptConfig();
    Simulator oneShot(cfg, kMix);
    oneShot.smtCore().prewarm(20000);
    Simulator stepped(cfg, kMix);
    stepped.smtCore().prewarm(8000);
    stepped.smtCore().prewarm(7000);
    stepped.smtCore().prewarm(5000);
    EXPECT_EQ(CheckpointCodec::encode(oneShot),
              CheckpointCodec::encode(stepped));
}

TEST(Checkpoint, RestoreOrWalkRestoresOnlyItsOwnIdentity)
{
    const SimConfig cfg = ckptConfig();
    const auto standalone = [](const SimConfig &c) {
        Simulator sim(c, kMix);
        return report::toJson(sim.run()).dump();
    };

    // Nothing to restore: the run walks and keeps its state.
    PrewarmCheckpoint ckpt;
    bool restored = true;
    EXPECT_EQ(report::toJson(restoreOrWalk(cfg, kMix, ckpt, restored))
                  .dump(),
              standalone(cfg));
    EXPECT_FALSE(restored);
    EXPECT_EQ(ckpt.identity, prewarmIdentity(cfg, kMix));
    const std::string walked = ckpt.blob;

    // Same identity under another policy: restored, same bytes.
    SimConfig flush = cfg;
    flush.core.policy = core::PolicyKind::Flush;
    EXPECT_EQ(report::toJson(restoreOrWalk(flush, kMix, ckpt, restored))
                  .dump(),
              standalone(flush));
    EXPECT_TRUE(restored);

    // Another seed has the same geometry, so the digest accepts the
    // blob; only the identity keeps it out of the run.
    SimConfig other = cfg;
    other.seed = 2;
    SimConfig noWalk = other;
    noWalk.prewarmInsts = 0;
    Simulator wrong(noWalk, kMix);
    EXPECT_TRUE(CheckpointCodec::restore(wrong, walked));
    EXPECT_EQ(report::toJson(restoreOrWalk(other, kMix, ckpt, restored))
                  .dump(),
              standalone(other));
    EXPECT_FALSE(restored);
    EXPECT_EQ(ckpt.identity, prewarmIdentity(other, kMix));
}

} // namespace
} // namespace rat::sim
