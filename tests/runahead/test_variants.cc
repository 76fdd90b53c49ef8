/**
 * @file
 * Behavioral tests of the runahead efficiency variants
 * (runahead/policy.hh): classic is the default and matches the
 * RatConfig default, capped bounds episode length, and the
 * useless-filter suppresses loads whose episodes prefetch nothing
 * while leaving productive streamers alone.
 */

#include <iterator>

#include <gtest/gtest.h>

#include "runahead/engine.hh"
#include "runahead/variant.hh"
#include "tests/core/test_helpers.hh"

namespace rat::runahead {
namespace {

using test::CoreHarness;

core::RatConfig
variantConfig(RaVariant variant)
{
    core::RatConfig rat;
    rat.variant = variant;
    return rat;
}

TEST(RaVariant, NamesRoundTripThroughParse)
{
    static_assert(std::size(kRaVariants) ==
                  static_cast<std::size_t>(RaVariant::UselessFilter) + 1);
    for (std::size_t i = 0; i < std::size(kRaVariants); ++i) {
        const NameRow<RaVariant> &row = kRaVariants[i];
        EXPECT_EQ(row.value, static_cast<RaVariant>(i)) << row.name;
        EXPECT_EQ(parseRaVariant(row.name), row.value) << row.name;
        EXPECT_STREQ(raVariantName(row.value), row.name);
        if (row.alias) {
            EXPECT_EQ(parseRaVariant(row.alias), row.value) << row.alias;
        }
    }
    EXPECT_EQ(parseRaVariant("uselessfilter"), RaVariant::UselessFilter);
    for (const char *bad : {"", "bogus", "Classic", "useless_filter"})
        EXPECT_FALSE(parseRaVariant(bad).has_value()) << '"' << bad << '"';
}

TEST(RaVariant, DefaultConfigIsClassic)
{
    const core::RatConfig rat;
    EXPECT_EQ(rat.variant, RaVariant::Classic);
    const RunaheadEngine engine(rat);
    EXPECT_STREQ(engine.variantName(), "classic");
}

TEST(RaVariant, EngineReportsSelectedVariant)
{
    EXPECT_STREQ(RunaheadEngine(variantConfig(RaVariant::Capped))
                     .variantName(),
                 "capped");
    EXPECT_STREQ(RunaheadEngine(variantConfig(RaVariant::UselessFilter))
                     .variantName(),
                 "useless-filter");
}

TEST(RaVariant, CappedBoundsEveryEpisodeLength)
{
    // With a 400-cycle memory, classic episodes on a streamer run for
    // hundreds of cycles. A 32-cycle cap must bound the *mean* episode
    // well below that (exit processing adds only a constant).
    core::RatConfig capped = variantConfig(RaVariant::Capped);
    capped.cappedMaxCycles = 32;

    CoreHarness classic({"art"}, core::PolicyKind::Rat,
                        variantConfig(RaVariant::Classic));
    CoreHarness bounded({"art"}, core::PolicyKind::Rat, capped);
    classic.core->run(30000);
    bounded.core->run(30000);

    const core::ThreadStats &sc = classic.core->threadStats(0);
    const core::ThreadStats &sb = bounded.core->threadStats(0);
    ASSERT_GT(sc.runaheadEntries, 10u);
    ASSERT_GT(sb.runaheadEntries, 10u);
    const double classic_len = static_cast<double>(sc.runaheadCycles) /
                               static_cast<double>(sc.runaheadEntries);
    const double capped_len = static_cast<double>(sb.runaheadCycles) /
                              static_cast<double>(sb.runaheadEntries);
    EXPECT_GT(classic_len, 100.0);
    EXPECT_LE(capped_len, 40.0);
    // The engine attributes the early exits to the cap.
    EXPECT_GT(bounded.core->runaheadEngine().stats().cappedExits, 10u);
    EXPECT_EQ(classic.core->runaheadEngine().stats().cappedExits, 0u);
}

TEST(RaVariant, CappedStillMakesForwardProgress)
{
    core::RatConfig capped = variantConfig(RaVariant::Capped);
    capped.cappedMaxCycles = 64;
    CoreHarness h({"art", "mcf"}, core::PolicyKind::Rat, capped);
    h.core->run(30000);
    EXPECT_GT(h.core->threadStats(0).committedInsts, 100u);
    EXPECT_GT(h.core->threadStats(1).committedInsts, 100u);
}

TEST(RaVariant, UselessFilterDrainsChaserEpisodes)
{
    // mcf's pointer-chasing episodes prefetch nothing (the property
    // behind ThreadStats::uselessRunaheadEpisodes), so the filter must
    // learn to run most of them fetch-gated (DrainOnly), slashing the
    // runahead work without giving up the episodes' resource release.
    // Aggressive knobs (sticky suppression, no re-probing) pin the
    // mechanism; the conservative defaults trade less work for less
    // IPC risk and are exercised by the golden + bench paths.
    core::RatConfig aggressive = variantConfig(RaVariant::UselessFilter);
    aggressive.uselessFilterThreshold = 2;
    aggressive.uselessFilterReprobe = 0;
    CoreHarness classic({"mcf"}, core::PolicyKind::Rat,
                        variantConfig(RaVariant::Classic));
    CoreHarness filtered({"mcf"}, core::PolicyKind::Rat, aggressive);
    classic.core->run(60000);
    filtered.core->run(60000);

    const auto &sc = classic.core->threadStats(0);
    const auto &sf = filtered.core->threadStats(0);
    const EngineStats &ec = classic.core->runaheadEngine().stats();
    const EngineStats &ef = filtered.core->runaheadEngine().stats();
    ASSERT_GT(sc.runaheadEntries, 20u);
    EXPECT_EQ(ec.drainEpisodes, 0u);
    EXPECT_GT(ef.drainEpisodes, ef.episodes / 2);
    // The wasted speculative work collapses (drained windows still
    // execute their in-flight slice, so execution falls less steeply
    // than pseudo-retirement)...
    EXPECT_LT(ef.executedInRunahead, ec.executedInRunahead / 2);
    EXPECT_LT(sf.pseudoRetired, sc.pseudoRetired / 4);
    // ...while the chaser's own progress is preserved (its episodes
    // were pure overhead).
    EXPECT_GE(sf.committedInsts, sc.committedInsts * 9 / 10);
}

TEST(RaVariant, UselessFilterKeepsStreamerEpisodes)
{
    // swim's streaming episodes prefetch productively: the filter must
    // leave them (and the committed-instruction win) essentially
    // intact.
    CoreHarness classic({"swim"}, core::PolicyKind::Rat,
                        variantConfig(RaVariant::Classic));
    CoreHarness filtered({"swim"}, core::PolicyKind::Rat,
                         variantConfig(RaVariant::UselessFilter));
    classic.core->run(60000);
    filtered.core->run(60000);

    const auto &sc = classic.core->threadStats(0);
    const auto &sf = filtered.core->threadStats(0);
    ASSERT_GT(sc.runaheadEntries, 10u);
    EXPECT_GT(sf.runaheadEntries, sc.runaheadEntries / 2);
    EXPECT_GE(sf.committedInsts, sc.committedInsts * 95 / 100);
}

TEST(RaVariant, UselessFilterThresholdClampsToCounterRange)
{
    // The 2-bit counters saturate at 3, so an out-of-range threshold
    // must clamp rather than silently disable the filter.
    core::RatConfig rat = variantConfig(RaVariant::UselessFilter);
    rat.uselessFilterThreshold = 10;
    rat.uselessFilterReprobe = 0;
    CoreHarness h({"mcf"}, core::PolicyKind::Rat, rat);
    h.core->run(60000);
    EXPECT_GT(h.core->runaheadEngine().stats().drainEpisodes, 0u);
}

TEST(RaVariant, ClassicEngineCountsEpisodesAndExecution)
{
    CoreHarness h({"art"}, core::PolicyKind::Rat,
                  variantConfig(RaVariant::Classic));
    h.core->run(30000);
    const EngineStats &es = h.core->runaheadEngine().stats();
    EXPECT_EQ(es.episodes, h.core->threadStats(0).runaheadEntries);
    EXPECT_GT(es.executedInRunahead, 0u);
    EXPECT_EQ(es.suppressedEntries, 0u);
}

} // namespace
} // namespace rat::runahead
