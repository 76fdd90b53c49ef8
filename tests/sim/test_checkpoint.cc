/**
 * @file
 * Round-trip tests for the "ratck2" architectural checkpoint codec
 * (sim/checkpoint.hh): restore-then-run must be digest-identical to
 * run-through at every --digest-window boundary, across cycle skipping
 * and the runahead variants;
 * corrupted blobs must be refused; the file key must share checkpoints
 * across the knobs the functional walk ignores and split them on the
 * knobs it depends on; restoreOrWalk must restore a blob only into its
 * own prewarm identity.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hh"
#include "report/serialize.hh"
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
