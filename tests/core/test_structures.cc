/** @file Unit tests for ROB / IQ / LSQ / FU pool structures. */

#include <gtest/gtest.h>

#include "core/structures.hh"

namespace rat::core {
namespace {

TEST(IssueQueue, InsertRemove)
{
    IssueQueue iq("testIQ", 2);
    DynInst a, b;
    iq.insert(a);
    iq.insert(b);
    EXPECT_TRUE(iq.full());
    iq.remove(a);
    EXPECT_EQ(iq.size(), 1u);
    EXPECT_EQ(iq.entries()[0], &b);
    iq.remove(b);
    EXPECT_EQ(iq.size(), 0u);
}

TEST(IssueQueue, MiddleRemovalKeepsPositionsConsistent)
{
    // O(1) swap-with-back removal must keep every member's iqPos index
    // pointing at its own slot.
    IssueQueue iq("testIQ", 4);
    DynInst a, b, c, d;
    iq.insert(a);
    iq.insert(b);
    iq.insert(c);
    iq.insert(d);
    iq.remove(b); // d swaps into b's slot
    EXPECT_EQ(iq.size(), 3u);
    for (std::uint32_t i = 0; i < iq.entries().size(); ++i)
        EXPECT_EQ(iq.entries()[i]->iqPos, i);
    iq.remove(d);
    iq.remove(a);
    ASSERT_EQ(iq.size(), 1u);
    EXPECT_EQ(iq.entries()[0], &c);
    EXPECT_EQ(c.iqPos, 0u);
}

TEST(IqClassMapping, OpsRouteToExpectedQueues)
{
    using trace::OpClass;
    EXPECT_EQ(iqClassOf(OpClass::IntAlu), IqClass::Int);
    EXPECT_EQ(iqClassOf(OpClass::Branch), IqClass::Int);
    EXPECT_EQ(iqClassOf(OpClass::Load), IqClass::Mem);
    EXPECT_EQ(iqClassOf(OpClass::FpStore), IqClass::Mem);
    EXPECT_EQ(iqClassOf(OpClass::FpMul), IqClass::Fp);
    EXPECT_EQ(iqClassOf(OpClass::Lock), IqClass::Int);
}

TEST(Rob, SharedPoolPerThreadLists)
{
    Rob rob(4);
    DynInst a, b;
    a.tid = 0;
    b.tid = 1;
    rob.push(a);
    rob.push(b);
    EXPECT_EQ(rob.used(), 2u);
    EXPECT_EQ(rob.threadCount(0), 1u);
    EXPECT_EQ(rob.threadCount(1), 1u);
    EXPECT_EQ(rob.head(0), &a);
    rob.popHead(0);
    EXPECT_EQ(rob.used(), 1u);
    EXPECT_TRUE(rob.empty(0));
    EXPECT_FALSE(rob.empty(1));
}

TEST(Rob, TailOperations)
{
    Rob rob(4);
    DynInst a, b;
    a.tid = 0;
    b.tid = 0;
    rob.push(a);
    rob.push(b);
    EXPECT_EQ(rob.tail(0), &b);
    rob.popTail(0);
    EXPECT_EQ(rob.tail(0), &a);
    EXPECT_EQ(rob.head(0), &a);
}

TEST(InstListOps, PushPopMaintainsLinks)
{
    InstList list;
    DynInst a, b, c;
    list.push_back(a);
    list.push_back(b);
    list.push_back(c);
    EXPECT_EQ(list.size(), 3u);
    EXPECT_EQ(list.head(), &a);
    EXPECT_EQ(list.tail(), &c);
    list.pop_front();
    EXPECT_EQ(list.head(), &b);
    EXPECT_EQ(b.seqPrev, nullptr);
    list.pop_back();
    EXPECT_EQ(list.head(), &b);
    EXPECT_EQ(list.tail(), &b);
    list.pop_back();
    EXPECT_TRUE(list.empty());
}

TEST(Lsq, ProgramOrderPerThread)
{
    Lsq lsq(4);
    DynInst a, b;
    a.tid = 0;
    b.tid = 0;
    lsq.insert(a);
    lsq.insert(b);
    EXPECT_EQ(lsq.used(), 2u);
    EXPECT_EQ(lsq.head(0), &a);
    EXPECT_EQ(a.lsqNext, &b);
    EXPECT_EQ(b.lsqNext, nullptr);
    lsq.remove(a);
    EXPECT_EQ(lsq.head(0), &b);
    EXPECT_EQ(lsq.threadCount(0), 1u);
    EXPECT_FALSE(a.inLsq);
}

TEST(Lsq, MiddleRemovalIsConstantTimeUnlink)
{
    Lsq lsq(8);
    DynInst a, b, c;
    a.tid = 1;
    b.tid = 1;
    c.tid = 1;
    lsq.insert(a);
    lsq.insert(b);
    lsq.insert(c);
    lsq.remove(b); // middle unlink
    EXPECT_EQ(lsq.head(1), &a);
    EXPECT_EQ(a.lsqNext, &c);
    EXPECT_EQ(c.lsqPrev, &a);
    EXPECT_EQ(lsq.threadCount(1), 2u);
    EXPECT_EQ(lsq.used(), 2u);
    // Removing an op that never entered (folded at rename) is a no-op.
    lsq.remove(b);
    EXPECT_EQ(lsq.used(), 2u);
}

TEST(Lsq, StoreChainTracksOnlyStores)
{
    Lsq lsq(8);
    DynInst ld1, st1, ld2, st2;
    ld1.tid = st1.tid = ld2.tid = st2.tid = 0;
    ld1.op.op = trace::OpClass::Load;
    st1.op.op = trace::OpClass::Store;
    ld2.op.op = trace::OpClass::FpLoad;
    st2.op.op = trace::OpClass::FpStore;
    lsq.insert(ld1);
    lsq.insert(st1);
    lsq.insert(ld2);
    lsq.insert(st2);
    EXPECT_EQ(lsq.storeCount(0), 2u);
    EXPECT_EQ(lsq.storeHead(0), &st1);
    EXPECT_EQ(st1.lsqStoreNext, &st2);
    lsq.remove(st1);
    EXPECT_EQ(lsq.storeHead(0), &st2);
    EXPECT_EQ(st2.lsqStorePrev, nullptr);
    EXPECT_EQ(lsq.storeCount(0), 1u);
    EXPECT_EQ(lsq.threadCount(0), 3u);
}

TEST(FuncUnitPool, LimitsConcurrentIssue)
{
    FuncUnitPool pool("fu", 2);
    EXPECT_TRUE(pool.tryIssue(10, 1));
    EXPECT_TRUE(pool.tryIssue(10, 1));
    EXPECT_FALSE(pool.tryIssue(10, 1)); // both busy this cycle
    EXPECT_TRUE(pool.tryIssue(11, 1));  // pipelined: free next cycle
}

TEST(FuncUnitPool, UnpipelinedOccupancy)
{
    FuncUnitPool pool("div", 1);
    EXPECT_TRUE(pool.tryIssue(0, 20));
    EXPECT_FALSE(pool.tryIssue(10, 1));
    EXPECT_TRUE(pool.tryIssue(20, 1));
    EXPECT_EQ(pool.freeUnits(20), 0u); // claimed again at 20
}

} // namespace
} // namespace rat::core
