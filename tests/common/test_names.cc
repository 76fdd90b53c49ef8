/**
 * @file
 * The name-table helper (common/names.hh) and the CheckLevel table in
 * core/config.hh. The other tables are pinned beside their owners:
 * policy/test_factory.cc, runahead/test_variants.cc and
 * sim/test_workloads.cc.
 */

#include <iterator>

#include <gtest/gtest.h>

#include "common/names.hh"
#include "core/config.hh"

namespace rat {
namespace {

enum class Fruit { Apple, Pear, Plum };

constexpr NameRow<Fruit> kFruits[] = {
    {Fruit::Apple, "apple"},
    {Fruit::Pear, "pear", "poire"},
    {Fruit::Plum, "plum"},
};

TEST(NameTable, CoversInOrderChecksCountAndOrder)
{
    static_assert(coversInOrder(kFruits, Fruit::Plum));
    constexpr NameRow<Fruit> kShort[] = {{Fruit::Apple, "apple"},
                                         {Fruit::Pear, "pear"}};
    static_assert(!coversInOrder(kShort, Fruit::Plum));
    constexpr NameRow<Fruit> kSwapped[] = {{Fruit::Pear, "pear"},
                                           {Fruit::Apple, "apple"},
                                           {Fruit::Plum, "plum"}};
    static_assert(!coversInOrder(kSwapped, Fruit::Plum));
}

TEST(NameTable, NamesAndAliasesParseBack)
{
    for (const NameRow<Fruit> &row : kFruits) {
        EXPECT_STREQ(nameOf(kFruits, row.value), row.name);
        EXPECT_EQ(parseName(kFruits, row.name), row.value) << row.name;
    }
    EXPECT_EQ(parseName(kFruits, "poire"), Fruit::Pear);
    EXPECT_STREQ(nameOf(kFruits, static_cast<Fruit>(7)), "?");
    for (const char *bad : {"", "Apple", "pear ", "fig"})
        EXPECT_FALSE(parseName(kFruits, bad)) << '"' << bad << '"';
}

TEST(CheckLevel, NamesRoundTripThroughTheTable)
{
    using core::CheckLevel;
    using core::kCheckLevels;
    const char *const names[] = {"off", "sampled", "full"};
    static_assert(std::size(kCheckLevels) ==
                  static_cast<std::size_t>(CheckLevel::Full) + 1);
    for (std::size_t i = 0; i < std::size(kCheckLevels); ++i) {
        const auto level = static_cast<CheckLevel>(i);
        EXPECT_EQ(kCheckLevels[i].value, level);
        EXPECT_STREQ(nameOf(kCheckLevels, level), names[i]);
        EXPECT_EQ(parseName(kCheckLevels, names[i]), level) << names[i];
    }
    for (const char *bad : {"", "Off", "FULL", "sample", "bogus"})
        EXPECT_FALSE(parseName(kCheckLevels, bad)) << '"' << bad << '"';
}

} // namespace
} // namespace rat
