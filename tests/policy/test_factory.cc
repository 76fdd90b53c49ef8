/**
 * @file
 * Round-trip tests of the policy factory: every technique name the
 * `ratsim --policy` flag documents must parse to the right PolicyKind,
 * construct the right policy object, and survive the
 * kind -> canonical name -> kind round trip. Unknown names must be
 * rejected rather than mapped to a default.
 */

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "policy/factory.hh"

namespace rat::policy {
namespace {

using core::PolicyKind;

struct NameCase {
    const char *cliName;       ///< spelling accepted by --policy
    PolicyKind kind;           ///< expected parse result
    const char *objectName;    ///< SchedulingPolicy::name() of makePolicy()
};

const NameCase kDocumentedNames[] = {
    {"ICOUNT", PolicyKind::Icount, "ICOUNT"},
    {"STALL", PolicyKind::Stall, "STALL"},
    {"FLUSH", PolicyKind::Flush, "FLUSH"},
    {"DCRA", PolicyKind::Dcra, "DCRA"},
    {"HillClimbing", PolicyKind::HillClimbing, "HillClimbing"},
    // RaT is not itself a fetch policy: the core does the mode
    // switching on top of plain ICOUNT priority (paper Section 3).
    {"RaT", PolicyKind::Rat, "ICOUNT"},
    {"RaT+DCRA", PolicyKind::RatDcra, "DCRA"},
    {"MLP", PolicyKind::MlpAware, "MLP"},
    {"RR", PolicyKind::RoundRobin, "RR"},
    // Shell-friendly aliases the CLI also accepts.
    {"RAT", PolicyKind::Rat, "ICOUNT"},
    {"RATDCRA", PolicyKind::RatDcra, "DCRA"},
    {"HC", PolicyKind::HillClimbing, "HillClimbing"},
};

TEST(PolicyFactory, EveryDocumentedNameParsesToItsKind)
{
    for (const NameCase &c : kDocumentedNames) {
        const auto kind = parsePolicyKind(c.cliName);
        ASSERT_TRUE(kind.has_value()) << c.cliName;
        EXPECT_EQ(*kind, c.kind) << c.cliName;
    }
    // An alias prints as its canonical name.
    EXPECT_STREQ(policyKindName(*parsePolicyKind("HC")), "HillClimbing");
    EXPECT_STREQ(policyKindName(*parsePolicyKind("RAT")), "RaT");
    EXPECT_STREQ(policyKindName(*parsePolicyKind("RATDCRA")), "RaT+DCRA");
}

TEST(PolicyFactory, EveryDocumentedNameConstructsTheRightPolicy)
{
    for (const NameCase &c : kDocumentedNames) {
        const auto policy = makePolicy(c.kind);
        ASSERT_NE(policy, nullptr) << c.cliName;
        EXPECT_STREQ(policy->name(), c.objectName) << c.cliName;
    }
}

TEST(PolicyFactory, CanonicalNameRoundTripsThroughParse)
{
    for (const NameCase &c : kDocumentedNames) {
        const std::string name = policyKindName(c.kind);
        const auto parsed = parsePolicyKind(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, c.kind) << name;
    }
}

TEST(PolicyFactory, NamesFollowDeclarationOrder)
{
    // One name per PolicyKind, in declaration order: ratbench builds
    // its sweep-mix2 lineup from policyKindNames() in this order.
    constexpr const char *kOrder[] = {
        "RR",           "ICOUNT", "STALL",    "FLUSH", "DCRA",
        "HillClimbing", "RaT",    "RaT+DCRA", "MLP",
    };
    static_assert(std::size(kOrder) ==
                  static_cast<std::size_t>(PolicyKind::MlpAware) + 1);
    EXPECT_EQ(policyKindNames(),
              std::vector<std::string>(std::begin(kOrder), std::end(kOrder)));
    for (std::size_t i = 0; i < std::size(kOrder); ++i) {
        const auto kind = static_cast<PolicyKind>(i);
        EXPECT_STREQ(policyKindName(kind), kOrder[i]);
        EXPECT_EQ(parsePolicyKind(kOrder[i]), kind) << kOrder[i];
    }
}

TEST(PolicyFactory, PolicyKindNamesCoversEveryKindOnce)
{
    const auto names = policyKindNames();
    EXPECT_EQ(names.size(), 9u);
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_NE(names[i], names[j]);
        EXPECT_TRUE(parsePolicyKind(names[i]).has_value()) << names[i];
    }
}

TEST(PolicyFactory, UnknownNamesAreRejected)
{
    for (const char *bad :
         {"", "icount", "rat", "Rat", "ICOUNT ", " ICOUNT", "ICOUNTX",
          "RaT-DCRA", "DCRA+RaT", "MLP2", "RoundRobin", "bogus"})
        EXPECT_FALSE(parsePolicyKind(bad).has_value()) << '"' << bad << '"';
}

} // namespace
} // namespace rat::policy
