/**
 * @file
 * Pinned scheduler work counters (DESIGN.md, "Event-driven wakeup").
 *
 * `SmtCore::SchedCounters` sit outside every result, digest and golden:
 * a ready-queue or wakeup change that examines other candidates, or
 * the same candidates a different number of times, would pass all of
 * them. This pins the three counters of two MIX4 cells (RaT, which
 * runs the runahead fold and squash paths, and DCRA) at seed 1 with
 * short windows. The literals were captured on the binary-heap ready
 * queue the age-sorted array replaced.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace rat::sim {
namespace {

struct SchedPin {
    core::PolicyKind policy;
    const char *name;
    std::uint64_t regWakeVisits;
    std::uint64_t storeWakeVisits;
    std::uint64_t readySelectVisits;
};

constexpr SchedPin kSchedPins[] = {
    {core::PolicyKind::Rat, "RaT", 44940, 323, 102377},
    {core::PolicyKind::Dcra, "DCRA", 8677, 68, 17058},
};

TEST(SchedGolden, CountersMatchGolden)
{
    const std::vector<std::string> mix = {"ammp", "applu", "apsi", "eon"};
    for (const SchedPin &pin : kSchedPins) {
        SCOPED_TRACE(pin.name);
        SimConfig cfg;
        cfg.seed = 1;
        cfg.prewarmInsts = 100000;
        cfg.warmupCycles = 2000;
        cfg.measureCycles = 20000;
        cfg.core.policy = pin.policy;
        Simulator sim(cfg, mix);
        sim.run();
        const auto &c = sim.smtCore().schedCounters();
        EXPECT_EQ(c.regWakeVisits, pin.regWakeVisits);
        EXPECT_EQ(c.storeWakeVisits, pin.storeWakeVisits);
        EXPECT_EQ(c.readySelectVisits, pin.readySelectVisits);
    }
}

} // namespace
} // namespace rat::sim
