/** @file Tests for the Table 2 workload definitions. */

#include <iterator>

#include <gtest/gtest.h>

#include "sim/workloads.hh"
#include "trace/profile.hh"

namespace rat::sim {
namespace {

TEST(Workloads, GroupCountsMatchTable2)
{
    EXPECT_EQ(workloadsOf(WorkloadGroup::ILP2).size(), 10u);
    EXPECT_EQ(workloadsOf(WorkloadGroup::MIX2).size(), 10u);
    EXPECT_EQ(workloadsOf(WorkloadGroup::MEM2).size(), 10u);
    EXPECT_EQ(workloadsOf(WorkloadGroup::ILP4).size(), 8u);
    EXPECT_EQ(workloadsOf(WorkloadGroup::MIX4).size(), 8u);
    EXPECT_EQ(workloadsOf(WorkloadGroup::MEM4).size(), 8u);
}

TEST(Workloads, ThreadCountsMatchGroup)
{
    for (const WorkloadGroup g : allGroups()) {
        for (const Workload &w : workloadsOf(g))
            EXPECT_EQ(w.programs.size(), groupThreads(g)) << w.name;
    }
}

TEST(Workloads, AllProgramsHaveProfiles)
{
    for (const std::string &p : allPrograms())
        EXPECT_TRUE(trace::isSpec2000(p)) << p;
}

TEST(Workloads, SpecificEntriesFromPaper)
{
    const auto &mem2 = workloadsOf(WorkloadGroup::MEM2);
    EXPECT_EQ(mem2[1].name, "art,mcf");
    const auto &ilp4 = workloadsOf(WorkloadGroup::ILP4);
    EXPECT_EQ(ilp4[0].name, "apsi,eon,fma3d,gcc");
    const auto &mem4 = workloadsOf(WorkloadGroup::MEM4);
    EXPECT_EQ(mem4[0].name, "art,mcf,swim,twolf");
}

TEST(Workloads, GroupNamesRoundTrip)
{
    // One row per WorkloadGroup, in declaration (Table 2) order.
    const struct {
        const char *name;
        unsigned threads;
    } kTable2[] = {{"ILP2", 2}, {"MIX2", 2}, {"MEM2", 2},
                   {"ILP4", 4}, {"MIX4", 4}, {"MEM4", 4}};
    static_assert(std::size(kTable2) ==
                  static_cast<std::size_t>(WorkloadGroup::MEM4) + 1);
    ASSERT_EQ(allGroups().size(), std::size(kTable2));
    for (std::size_t i = 0; i < std::size(kTable2); ++i) {
        const auto group = static_cast<WorkloadGroup>(i);
        EXPECT_EQ(allGroups()[i], group);
        EXPECT_STREQ(groupName(group), kTable2[i].name);
        EXPECT_EQ(parseGroup(kTable2[i].name), group);
        EXPECT_EQ(groupThreads(group), kTable2[i].threads);
    }
    for (const char *bad : {"", "ilp2", "MEM8", "MIX", " MIX2"})
        EXPECT_FALSE(parseGroup(bad)) << '"' << bad << '"';
}

} // namespace
} // namespace rat::sim
