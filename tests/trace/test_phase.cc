/**
 * @file
 * Unit tests for the BBV-style phase profiler (trace/phase.hh):
 * determinism, weight accounting, clamping, and the degenerate cases
 * sampled simulation relies on (single window, single phase).
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "trace/generator.hh"
#include "trace/phase.hh"
#include "trace/profile.hh"

namespace rat::trace {
namespace {

/** The Simulator's stream recipe for a (seed, programs) workload. */
std::vector<std::unique_ptr<TraceGenerator>>
makeStreams(const std::vector<std::string> &programs,
            std::uint64_t seed = 1)
{
    std::vector<std::unique_ptr<TraceGenerator>> gens;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        gens.push_back(std::make_unique<TraceGenerator>(
            spec2000(programs[i]),
            hashCombine(seed, hashCombine(i + 1, 0x7261747321ULL)),
            (static_cast<Addr>(i) + 1) << 40));
    }
    return gens;
}

std::vector<const TraceSource *>
views(const std::vector<std::unique_ptr<TraceGenerator>> &gens)
{
    std::vector<const TraceSource *> v;
    for (const auto &g : gens)
        v.push_back(g.get());
    return v;
}

PhaseProfile
profileOf(const std::vector<std::string> &programs, InstSeq start,
          const PhaseConfig &cfg)
{
    const auto gens = makeStreams(programs);
    return profilePhases(views(gens), start, cfg);
}

TEST(Phase, WeightsCoverEveryWindow)
{
    PhaseConfig cfg;
    cfg.window = 1024;
    cfg.spanWindows = 48;
    cfg.phases = 4;
    const PhaseProfile p = profileOf({"art", "gzip"}, 100000, cfg);

    ASSERT_FALSE(p.samples.empty());
    ASSERT_LE(p.samples.size(), 4u);
    EXPECT_EQ(p.window, 1024u);
    EXPECT_EQ(p.spanWindows, 48u);
    EXPECT_EQ(p.totalWeight(), 48u);
    EXPECT_EQ(p.assignment.size(), 48u);

    // Samples are strictly ascending by window index and in range; the
    // assignment references exactly the surviving samples.
    for (std::size_t i = 1; i < p.samples.size(); ++i)
        EXPECT_LT(p.samples[i - 1].windowIndex, p.samples[i].windowIndex);
    std::vector<std::uint64_t> population(p.samples.size(), 0);
    for (const unsigned cluster : p.assignment) {
        ASSERT_LT(cluster, p.samples.size());
        ++population[cluster];
    }
    for (std::size_t i = 0; i < p.samples.size(); ++i) {
        EXPECT_LT(p.samples[i].windowIndex, 48u);
        EXPECT_EQ(p.samples[i].weight, population[i]);
        // The representative belongs to its own cluster.
        EXPECT_EQ(p.assignment[p.samples[i].windowIndex],
                  static_cast<unsigned>(i));
    }
}

TEST(Phase, DeterministicAcrossCalls)
{
    PhaseConfig cfg;
    cfg.window = 2048;
    cfg.spanWindows = 32;
    cfg.phases = 6;
    const PhaseProfile a = profileOf({"swim", "mgrid"}, 50000, cfg);
    const PhaseProfile b = profileOf({"swim", "mgrid"}, 50000, cfg);

    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].windowIndex, b.samples[i].windowIndex);
        EXPECT_EQ(a.samples[i].weight, b.samples[i].weight);
    }
    EXPECT_EQ(a.assignment, b.assignment);
}

TEST(Phase, SensitiveToStartAndSeed)
{
    PhaseConfig cfg;
    cfg.window = 2048;
    cfg.spanWindows = 32;
    cfg.phases = 4;
    const auto gens1 = makeStreams({"art", "mcf"}, 1);
    const auto gens2 = makeStreams({"art", "mcf"}, 2);
    const PhaseProfile a = profilePhases(views(gens1), 100000, cfg);
    const PhaseProfile b = profilePhases(views(gens1), 200000, cfg);
    const PhaseProfile c = profilePhases(views(gens2), 100000, cfg);

    // Distinct spans / seeds should not produce the identical
    // clustering (weights + representatives + assignment all equal).
    const auto same = [](const PhaseProfile &x, const PhaseProfile &y) {
        if (x.samples.size() != y.samples.size())
            return false;
        for (std::size_t i = 0; i < x.samples.size(); ++i) {
            if (x.samples[i].windowIndex != y.samples[i].windowIndex ||
                x.samples[i].weight != y.samples[i].weight)
                return false;
        }
        return x.assignment == y.assignment;
    };
    EXPECT_FALSE(same(a, b) && same(a, c));
}

TEST(Phase, SinglePhaseCollapsesToOneSample)
{
    PhaseConfig cfg;
    cfg.window = 2048;
    cfg.spanWindows = 16;
    cfg.phases = 1;
    const PhaseProfile p = profileOf({"art", "gzip"}, 100000, cfg);

    ASSERT_EQ(p.samples.size(), 1u);
    EXPECT_EQ(p.samples[0].weight, 16u);
    for (const unsigned cluster : p.assignment)
        EXPECT_EQ(cluster, 0u);
}

TEST(Phase, SingleWindowDegenerates)
{
    PhaseConfig cfg;
    cfg.window = 1024;
    cfg.spanWindows = 1;
    cfg.phases = 4; // clamped to the single window
    const PhaseProfile p = profileOf({"mcf"}, 0, cfg);

    ASSERT_EQ(p.samples.size(), 1u);
    EXPECT_EQ(p.samples[0].windowIndex, 0u);
    EXPECT_EQ(p.samples[0].weight, 1u);
}

TEST(Phase, MorePhasesThanWindowsClamps)
{
    PhaseConfig cfg;
    cfg.window = 512;
    cfg.spanWindows = 3;
    cfg.phases = 16;
    const PhaseProfile p = profileOf({"gzip"}, 1000, cfg);

    ASSERT_LE(p.samples.size(), 3u);
    ASSERT_GE(p.samples.size(), 1u);
    EXPECT_EQ(p.totalWeight(), 3u);
}

TEST(Phase, RefusesSpansAboveTheLimit)
{
    // The signature matrix grows with the span: a span past the limit
    // fails as a configuration error before anything is allocated.
    PhaseConfig cfg;
    cfg.window = 1;
    cfg.spanWindows = kMaxSpanWindows + 1;
    EXPECT_EXIT(profileOf({"gzip"}, 0, cfg), ::testing::ExitedWithCode(1),
                "limit of 65536");
}

} // namespace
} // namespace rat::trace
