/**
 * @file
 * State-digest pins (DESIGN.md, "Self-checking & determinism audit"):
 *
 *  - mode invariance: the digest stream of one configuration is
 *    byte-identical with cycle skipping on and off — the property
 *    `ratsim verify` bisects violations of;
 *  - boundary semantics: digests land exactly every `digestWindow`
 *    cycles from measurement start, and run-to-run reproduction is
 *    exact;
 *  - serialization: a digest-bearing SimResult round-trips through
 *    the report JSON with the stream intact, and a digest-bearing
 *    SimConfig serializes its window (so cached cells can never mix
 *    digested and undigested payloads under one key);
 *  - sensitivity: the verify hook's single-flip mutation changes every
 *    digest from the first post-mutation boundary on, and only those.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "report/serialize.hh"
#include "sim/simulator.hh"

namespace rat::check {
namespace {

sim::SimConfig
digestConfig(bool skip)
{
    sim::SimConfig cfg;
    cfg.prewarmInsts = 100000;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 10000;
    cfg.digestWindow = 256;
    cfg.core.policy = core::PolicyKind::Rat;
    cfg.core.cycleSkipping = skip;
    return cfg;
}

obs::DigestTrack
runTrack(const sim::SimConfig &cfg)
{
    sim::Simulator sim(cfg, {"art", "gzip"});
    return sim.run().digest;
}

TEST(DigestCheck, StreamIsIdenticalAcrossTheModeGrid)
{
    const obs::DigestTrack ref = runTrack(digestConfig(true));
    ASSERT_TRUE(ref.enabled());
    EXPECT_EQ(ref.samples.size(), 10000u / 256u);
    EXPECT_TRUE(ref == runTrack(digestConfig(false)));
}

TEST(DigestCheck, BoundariesAreWindowExactAndReproducible)
{
    const sim::SimConfig cfg = digestConfig(true);
    const obs::DigestTrack first = runTrack(cfg);
    ASSERT_FALSE(first.samples.empty());

    // Boundaries march in window steps from the first sample.
    for (std::size_t i = 1; i < first.samples.size(); ++i)
        EXPECT_EQ(first.samples[i].cycle,
                  first.samples[i - 1].cycle + cfg.digestWindow);

    const obs::DigestTrack second = runTrack(cfg);
    EXPECT_TRUE(first == second);
}

TEST(DigestCheck, ResultAndConfigRoundTripThroughJson)
{
    const sim::SimConfig cfg = digestConfig(true);
    sim::Simulator sim(cfg, {"art", "gzip"});
    const sim::SimResult result = sim.run();
    ASSERT_TRUE(result.digest.enabled());

    sim::SimResult back;
    ASSERT_TRUE(report::fromJson(report::toJson(result), back));
    EXPECT_TRUE(result.digest == back.digest);

    sim::SimConfig cfg_back;
    ASSERT_TRUE(report::fromJson(report::toJson(cfg), cfg_back));
    EXPECT_EQ(cfg_back.digestWindow, cfg.digestWindow);

    // A windowless config must stay windowless after a round trip.
    sim::SimConfig plain;
    ASSERT_TRUE(report::fromJson(report::toJson(plain), cfg_back));
    EXPECT_EQ(cfg_back.digestWindow, 0u);
}

TEST(DigestCheck, SingleFlipMutationDivergesFromItsBoundaryOn)
{
    const sim::SimConfig clean = digestConfig(true);
    const obs::DigestTrack ref = runTrack(clean);

    sim::SimConfig mutated = clean;
    mutated.mutateAtCycle = 1500; // relative to measurement start
    const obs::DigestTrack mut = runTrack(mutated);
    ASSERT_EQ(ref.samples.size(), mut.samples.size());

    // The flip lands at measure-start + 1500; every boundary after it
    // must differ (the flipped committed-counter stays flipped), and
    // every boundary before it must match.
    for (std::size_t i = 0; i < ref.samples.size(); ++i) {
        const Cycle offset =
            static_cast<Cycle>(i + 1) * clean.digestWindow;
        ASSERT_EQ(ref.samples[i].cycle, mut.samples[i].cycle);
        if (offset <= 1500) {
            EXPECT_EQ(ref.samples[i].digest, mut.samples[i].digest)
                << "pre-mutation boundary " << i << " diverged";
        } else {
            EXPECT_NE(ref.samples[i].digest, mut.samples[i].digest)
                << "post-mutation boundary " << i << " agreed";
        }
    }
}

} // namespace
} // namespace rat::check
