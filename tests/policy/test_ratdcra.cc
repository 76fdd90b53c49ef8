/** @file Tests for the RaT+DCRA hybrid (Section 5.2 future work). */

#include <gtest/gtest.h>

#include "tests/core/test_helpers.hh"

namespace rat::policy {
namespace {

using test::CoreHarness;

TEST(RatDcra, RunsRunaheadUnderDcraCaps)
{
    CoreHarness h({"art", "gzip"}, core::PolicyKind::RatDcra);
    h.core->run(30000);
    // Runahead must still trigger (the hybrid keeps the mechanism)...
    EXPECT_GT(h.core->threadStats(0).runaheadEntries, 0u);
    // ...and both threads progress.
    EXPECT_GT(h.core->threadStats(0).committedInsts, 0u);
    EXPECT_GT(h.core->threadStats(1).committedInsts, 0u);
}

TEST(RatDcra, TracksPlainRatClosely)
{
    CoreHarness rat({"art", "mcf"}, core::PolicyKind::Rat);
    CoreHarness hybrid({"art", "mcf"}, core::PolicyKind::RatDcra);
    rat.core->run(40000);
    hybrid.core->run(40000);
    const auto total = [](const CoreHarness &h) {
        return h.core->threadStats(0).committedInsts +
               h.core->threadStats(1).committedInsts;
    };
    // Orthogonal mechanisms: within 25% of each other.
    EXPECT_GT(total(hybrid), 0.75 * total(rat));
    EXPECT_LT(total(hybrid), 1.34 * total(rat));
}

TEST(RatDcra, BeatsPlainDcraOnMemWorkload)
{
    CoreHarness dcra({"swim", "art"}, core::PolicyKind::Dcra);
    CoreHarness hybrid({"swim", "art"}, core::PolicyKind::RatDcra);
    dcra.core->run(40000);
    hybrid.core->run(40000);
    const auto total = [](const CoreHarness &h) {
        return h.core->threadStats(0).committedInsts +
               h.core->threadStats(1).committedInsts;
    };
    EXPECT_GT(total(hybrid), total(dcra));
}

TEST(RatDcra, PolicyNameRoundTrips)
{
    EXPECT_STREQ(policyKindName(core::PolicyKind::RatDcra), "RaT+DCRA");
    EXPECT_TRUE(core::runaheadEnabled(core::PolicyKind::RatDcra));
    EXPECT_TRUE(core::runaheadEnabled(core::PolicyKind::Rat));
    EXPECT_FALSE(core::runaheadEnabled(core::PolicyKind::Dcra));
    EXPECT_FALSE(core::runaheadEnabled(core::PolicyKind::Icount));
}

} // namespace
} // namespace rat::policy
