/**
 * @file
 * SMT resource-sharing invariants: shared-structure occupancies stay
 * within capacity under every policy, and accounting balances across
 * long mixed runs with squashes and runahead episodes.
 */

#include <cctype>

#include <gtest/gtest.h>

#include "tests/core/test_helpers.hh"

namespace rat::core {
namespace {

using test::CoreHarness;

class SharingUnderPolicy
    : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(SharingUnderPolicy, OccupanciesNeverExceedCapacity)
{
    CoreHarness h({"art", "gzip", "mcf", "swim"}, GetParam(), {}, 3,
                  200000);
    const auto &cfg = h.core->config();
    for (int chunk = 0; chunk < 60; ++chunk) {
        h.core->run(250);
        unsigned rob = 0, lsq = 0;
        unsigned iq[kNumIqClasses] = {};
        for (ThreadId t = 0; t < 4; ++t) {
            rob += h.core->robOccupancy(t);
            lsq += h.core->lsqOccupancy(t);
            for (unsigned c = 0; c < kNumIqClasses; ++c) {
                iq[c] += h.core->iqOccupancy(
                    static_cast<IqClass>(c), t);
            }
        }
        ASSERT_LE(rob, cfg.robEntries);
        ASSERT_LE(lsq, cfg.lsqEntries);
        ASSERT_LE(iq[0], cfg.intIqEntries);
        ASSERT_LE(iq[1], cfg.lsIqEntries);
        ASSERT_LE(iq[2], cfg.fpIqEntries);
        ASSERT_LE(h.core->allocatedRegs(false), cfg.intRegs);
        ASSERT_LE(h.core->allocatedRegs(true), cfg.fpRegs);
        ASSERT_EQ(rob + h.core->robFree(), cfg.robEntries);
    }
}

TEST_P(SharingUnderPolicy, RegisterAccountingBalances)
{
    CoreHarness h({"art", "mcf"}, GetParam(), {}, 5, 200000);
    for (int chunk = 0; chunk < 50; ++chunk) {
        h.core->run(400);
        unsigned held_int = 0, held_fp = 0;
        for (ThreadId t = 0; t < 2; ++t) {
            held_int += h.core->regsHeld(t, false);
            held_fp += h.core->regsHeld(t, true);
        }
        ASSERT_EQ(held_int, h.core->allocatedRegs(false));
        ASSERT_EQ(held_fp, h.core->allocatedRegs(true));
    }
}

TEST_P(SharingUnderPolicy, AllThreadsEventuallyProgress)
{
    CoreHarness h({"swim", "gzip", "twolf", "eon"}, GetParam(), {}, 7,
                  200000);
    h.core->run(40000);
    for (ThreadId t = 0; t < 4; ++t) {
        EXPECT_GT(h.core->threadStats(t).committedInsts, 50u)
            << "thread " << int(t) << " starved under "
            << policy::policyKindName(GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SharingUnderPolicy,
    ::testing::Values(PolicyKind::RoundRobin, PolicyKind::Icount,
                      PolicyKind::Stall, PolicyKind::Flush,
                      PolicyKind::Dcra, PolicyKind::HillClimbing,
                      PolicyKind::Rat, PolicyKind::RatDcra),
    [](const auto &param_info) {
        std::string name = policy::policyKindName(param_info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(SmtSharing, RunaheadPairDoesNotDeadlock)
{
    CoreHarness h({"art", "gzip"}, PolicyKind::Rat, {}, 1, 100000);
    h.core->run(20000);
    EXPECT_GT(h.core->threadStats(0).committedInsts, 0u);
    EXPECT_GT(h.core->threadStats(1).committedInsts, 0u);
}

TEST(SmtSharing, EightThreadConfigurationRuns)
{
    CoreHarness h({"gzip", "bzip2", "gcc", "eon", "art", "mcf", "swim",
                   "twolf"},
                  PolicyKind::Rat, {}, 11, 100000);
    h.core->run(15000);
    std::uint64_t total = 0;
    for (ThreadId t = 0; t < 8; ++t)
        total += h.core->threadStats(t).committedInsts;
    EXPECT_GT(total, 1000u);
}

TEST(SmtSharing, ModeCyclesPartitionWallClock)
{
    CoreHarness h({"art", "swim"}, PolicyKind::Rat, {}, 13, 200000);
    const Cycle start = h.core->cycle();
    h.core->resetStats();
    h.core->run(20000);
    const Cycle elapsed = h.core->cycle() - start;
    for (ThreadId t = 0; t < 2; ++t) {
        const auto &s = h.core->threadStats(t);
        EXPECT_EQ(s.normalCycles + s.runaheadCycles, elapsed)
            << int(t);
        EXPECT_GT(s.runaheadCycles, 0u) << int(t);
    }
}

} // namespace
} // namespace rat::core
