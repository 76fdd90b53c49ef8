/**
 * @file
 * Quiescence-aware cycle skipping vs per-cycle ticking (DESIGN.md,
 * "Cycle skipping & quiescence invariants").
 *
 * Fast-forwarding over provably idle cycles must be *bit-identical* to
 * ticking through them — the same contract the event-driven scheduler
 * refactor established. Pinned here:
 *
 *  - full serialized SimResult equality, skip vs ticked, across every
 *    scheduling policy (the MIX2 pair exercises runahead, flush and
 *    resource-control paths);
 *  - skip vs ticked on a memory-bound pair under RaT, including the
 *    SchedCounters work accounting, which must match exactly;
 *  - the event-driven scheduler's work bound on the same run: wakeups
 *    visit only actual dependence edges (DESIGN.md, "Event-driven
 *    wakeup");
 *  - skipped-span occupancy integration: the sampleCycle() accumulators
 *    (mode cycles and register-occupancy products) match the ticked
 *    values exactly while a large fraction of cycles is skipped;
 *  - a skip never crosses a HillClimbing epoch boundary (the policy
 *    horizon clamp) nor the simulator's warmup -> measure stats-reset
 *    boundary (the run-window clamp).
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dyninst.hh"
#include "policy/factory.hh"
#include "policy/hill_climbing.hh"
#include "report/serialize.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace rat::sim {
namespace {

SimConfig
skipConfig(core::PolicyKind kind, bool skip)
{
    SimConfig cfg;
    cfg.prewarmInsts = 100000;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 10000;
    cfg.core.policy = kind;
    cfg.core.cycleSkipping = skip;
    return cfg;
}

std::string
resultJson(const SimConfig &cfg, const std::vector<std::string> &programs)
{
    Simulator sim(cfg, programs);
    return report::toJson(sim.run()).dump(2);
}

TEST(CycleSkip, SkipMatchesTickedAcrossPolicies)
{
    const std::vector<std::string> programs = {"art", "gzip"};
    for (const std::string &name : policy::policyKindNames()) {
        SCOPED_TRACE(name);
        const auto kind = policy::parsePolicyKind(name);
        ASSERT_TRUE(kind.has_value());
        const std::string skipped =
            resultJson(skipConfig(*kind, true), programs);
        const std::string ticked =
            resultJson(skipConfig(*kind, false), programs);
        EXPECT_EQ(skipped, ticked);
    }
}

TEST(CycleSkip, TwoByTwoModeGridIdentical)
{
    // Skip vs tick on a memory-bound RaT pair: both must serialize
    // identically, and the hot-path work counters must match ticked
    // execution exactly (a skipped span does no scheduler work).
    const std::vector<std::string> programs = {"art", "mcf"};
    std::string json[2];
    core::SmtCore::SchedCounters counters[2];
    for (const bool skip : {false, true}) {
        Simulator sim(skipConfig(core::PolicyKind::Rat, skip), programs);
        json[skip] = report::toJson(sim.run()).dump(2);
        counters[skip] = sim.smtCore().schedCounters();
    }
    EXPECT_EQ(json[0], json[1]);
    EXPECT_EQ(counters[0].regWakeVisits, counters[1].regWakeVisits);
    EXPECT_EQ(counters[0].storeWakeVisits, counters[1].storeWakeVisits);
    EXPECT_EQ(counters[0].readySelectVisits,
              counters[1].readySelectVisits);
}

TEST(EventScheduler, WakeupVisitsBoundedByActualDependents)
{
    Simulator sim(skipConfig(core::PolicyKind::Rat, true), {"art", "mcf"});
    const SimResult res = sim.run();
    const auto &c = sim.smtCore().schedCounters();

    // Every instruction entering an issue queue registers at most
    // kMaxSrcs waiter nodes and one store dependence, and each node is
    // visited at most once by a wakeup. Fetched instructions bound the
    // dispatched count from above (measured window only; the counters
    // reset together with the stats).
    std::uint64_t fetched = 0;
    for (const ThreadResult &t : res.threads)
        fetched += t.core.fetchedInsts;
    ASSERT_GT(fetched, 0u);
    EXPECT_LE(c.regWakeVisits, fetched * core::DynInst::kMaxSrcs);
    EXPECT_LE(c.storeWakeVisits, fetched);
}

TEST(CycleSkip, OccupancyIntegrationMatchesTicked)
{
    // STALL on a memory-bound pair spends most cycles fully idle, so
    // the mode-cycle and register-occupancy accumulators are mostly
    // produced by skipped-span integration — they must equal the
    // per-cycle sampled values bit for bit.
    const std::vector<std::string> programs = {"art", "mcf"};

    PhaseTiming skip_timing;
    Simulator skip_sim(skipConfig(core::PolicyKind::Stall, true),
                       programs);
    const SimResult skipped = skip_sim.run(&skip_timing);

    Simulator tick_sim(skipConfig(core::PolicyKind::Stall, false),
                       programs);
    const SimResult ticked = tick_sim.run();

    // The integration must actually have run (vacuous equality would
    // pin nothing).
    ASSERT_GT(skip_timing.measureSkippedCycles, 0u);
    ASSERT_GT(skip_timing.measureSkipSpans, 0u);

    ASSERT_EQ(skipped.threads.size(), ticked.threads.size());
    for (std::size_t t = 0; t < skipped.threads.size(); ++t) {
        SCOPED_TRACE(skipped.threads[t].program);
        const core::ThreadStats &s = skipped.threads[t].core;
        const core::ThreadStats &r = ticked.threads[t].core;
        EXPECT_EQ(s.normalCycles, r.normalCycles);
        EXPECT_EQ(s.runaheadCycles, r.runaheadCycles);
        EXPECT_EQ(s.normalRegCycles, r.normalRegCycles);
        EXPECT_EQ(s.runaheadRegCycles, r.runaheadRegCycles);
        // Every thread is sampled on every simulated cycle, ticked or
        // skipped.
        EXPECT_EQ(s.normalCycles + s.runaheadCycles, skipped.cycles);
    }
}

TEST(CycleSkip, NeverCrossesWarmupMeasureBoundary)
{
    // SmtCore::run clamps every fast-forward to the requested window,
    // so the warmup -> measure resetStats boundary lands on the exact
    // cycle and the measured window is exactly measureCycles long.
    const SimConfig cfg = skipConfig(core::PolicyKind::Stall, true);
    Simulator sim(cfg, {"art", "mcf"});
    PhaseTiming timing;
    const SimResult r = sim.run(&timing);

    EXPECT_EQ(r.cycles, cfg.measureCycles);
    EXPECT_GT(timing.measureSkippedCycles, 0u);
    EXPECT_LT(timing.measureSkippedCycles, cfg.measureCycles);
    EXPECT_LE(timing.warmupSkippedCycles, cfg.warmupCycles);
}

/**
 * HillClimbing with the epoch state machine mirrored externally: the
 * base policy rebases epochStart_ to the cycle a boundary fires on, so
 * if a fast-forward ever overshot a boundary the fire cycle would be
 * late and every later epoch would shift — exactly the divergence the
 * quiescentUntil clamp exists to prevent.
 */
class EpochPinPolicy : public policy::HillClimbingPolicy
{
  public:
    explicit EpochPinPolicy(const policy::HillClimbingConfig &config)
        : HillClimbingPolicy(config), epochLength_(config.epochLength)
    {
    }

    void
    beginCycle(core::SmtCore &core) override
    {
        const Cycle now = core.cycle();
        if (!primed_) {
            // The first call fires a boundary immediately (epochStart
            // is 0 and the clock is already past the prewarm window).
            primed_ = true;
            nextBoundary_ = now + epochLength_;
        } else if (now >= nextBoundary_) {
            EXPECT_EQ(now, nextBoundary_)
                << "cycle skip crossed a HillClimbing epoch boundary";
            nextBoundary_ = now + epochLength_;
            ++boundaries_;
        }
        HillClimbingPolicy::beginCycle(core);
    }

    int boundaries() const { return boundaries_; }

  private:
    Cycle epochLength_;
    bool primed_ = false;
    Cycle nextBoundary_ = 0;
    int boundaries_ = 0;
};

TEST(CycleSkip, NeverCrossesHillClimbingEpochBoundary)
{
    // Short epochs on an idle-heavy pair: boundaries land inside
    // would-be quiescent spans, so the policy horizon must clamp them.
    core::CoreConfig cfg;
    cfg.numThreads = 2;
    cfg.policy = core::PolicyKind::HillClimbing;
    cfg.cycleSkipping = true;

    mem::MemoryHierarchy mem{mem::MemConfig{}};
    std::vector<std::unique_ptr<trace::TraceGenerator>> gens;
    std::vector<const trace::TraceSource *> streams;
    const std::vector<std::string> programs = {"art", "mcf"};
    for (std::size_t i = 0; i < programs.size(); ++i) {
        gens.push_back(std::make_unique<trace::TraceGenerator>(
            trace::spec2000(programs[i]), 1 + i * 7919,
            (static_cast<Addr>(i) + 1) << 40));
        streams.push_back(gens.back().get());
    }

    policy::HillClimbingConfig hc;
    hc.epochLength = 256;
    EpochPinPolicy policy(hc);
    core::SmtCore core(cfg, mem, policy, std::move(streams));
    core.prewarm(200000);
    core.run(30000);

    // The pin is only meaningful if skipping engaged and boundaries
    // actually fired while it was active.
    EXPECT_GT(core.skipStats().skippedCycles, 0u);
    EXPECT_GT(core.skipStats().skipSpans, 0u);
    EXPECT_GT(policy.boundaries(), 10);
}

} // namespace
} // namespace rat::sim
