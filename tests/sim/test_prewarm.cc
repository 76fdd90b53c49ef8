/**
 * @file
 * The multi-worker prewarm walk (core/prewarm.cc): the state a walk
 * leaves must not depend on how many workers shared it, down to the
 * last byte of the checkpoint blob, and a failing stream must reach the
 * caller as an exception. A lone walk takes a worker per CPU it may
 * run on, up to the lane count; campaigns and farms default to one
 * worker per such CPU.
 */

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include "core/smt_core.hh"
#include "mem/hierarchy.hh"
#include "policy/factory.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

/** The checkpoint blob after a walk of @p insts on @p workers workers. */
std::string
walkedBlob(const SimConfig &cfg, const std::vector<std::string> &programs,
           InstSeq insts, unsigned workers)
{
    Simulator sim(cfg, programs);
    sim.smtCore().prewarm(insts, workers);
    return CheckpointCodec::encode(sim);
}

TEST(Prewarm, WorkerCountsEncodeIdentically)
{
    SimConfig smallL2;
    smallL2.mem.l2.sizeBytes = 64 << 10;
    smallL2.mem.l2.ways = 2;
    const std::vector<std::vector<std::string>> mixes = {
        {"mcf"}, {"art", "gzip"}, {"ammp", "applu", "apsi", "eon"}};
    // One instruction, a block short of a block, a block and one past
    // it, three blocks and a partial chunk (blocks are 4096 long).
    const InstSeq lengths[] = {1, 4095, 4097, 3 * 4096 + 17};
    for (const SimConfig &cfg : {SimConfig{}, smallL2}) {
        for (const auto &mix : mixes) {
            for (const InstSeq insts : lengths) {
                const std::string serial = walkedBlob(cfg, mix, insts, 1);
                for (const unsigned workers : {2u, 3u, 4u, 8u}) {
                    EXPECT_EQ(walkedBlob(cfg, mix, insts, workers), serial)
                        << mix.size() << "-thread mix " << mix[0] << ", L2 "
                        << cfg.mem.l2.sizeBytes << " B, " << insts
                        << " insts, " << workers << " workers";
                }
            }
        }
    }

    // The full default walk of a MIX4 mix.
    const std::vector<std::string> mix4 = {"art", "mcf", "gzip", "crafty"};
    const std::string serial = walkedBlob(SimConfig{}, mix4, 1000000, 1);
    for (const unsigned workers : {2u, 3u, 4u, 8u})
        EXPECT_EQ(walkedBlob(SimConfig{}, mix4, 1000000, workers), serial)
            << workers << " workers";
}

/** A stream whose at() fails from one index on. */
class FailingSource : public trace::TraceSource
{
  public:
    explicit FailingSource(InstSeq failAt) : failAt_(failAt) {}

    trace::MicroOp
    at(InstSeq idx) const override
    {
        if (idx >= failAt_)
            throw std::runtime_error("stream ended");
        trace::MicroOp op;
        op.seq = idx;
        op.pc = 0x1000 + 4 * (idx % 256);
        return op;
    }

  private:
    InstSeq failAt_;
};

TEST(Prewarm, StreamFailureReachesTheCaller)
{
    // A worker's exception must be rethrown on the calling thread
    // after every worker is joined, whichever worker generated the
    // failing chunk.
    for (const unsigned workers : {1u, 2u, 4u}) {
        core::CoreConfig cfg;
        cfg.numThreads = 2;
        mem::MemoryHierarchy memory{mem::MemConfig{}};
        const FailingSource fine(~InstSeq{0});
        const FailingSource failing(3 * 4096 + 100);
        const auto policy = policy::makePolicy(cfg.policy);
        core::SmtCore core(cfg, memory, *policy, {&fine, &failing});
        EXPECT_THROW(core.prewarm(5 * 4096, workers), std::runtime_error)
            << workers << " workers";
    }
}

TEST(Prewarm, WalkWorkersCountTheAllowedCpus)
{
    const unsigned workers = prewarmWalkWorkers();
    EXPECT_GE(workers, 1u);
    EXPECT_LE(workers, core::SmtCore::kWalkLanes);
#ifdef __linux__
    // Confined to one CPU (as under `taskset -c 0`), a walk gets one
    // worker, however many CPUs are online.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned confined = prewarmWalkWorkers();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(confined, 1u);
#endif
}

TEST(Prewarm, UsableCpusCountTheAllowedCpus)
{
    // The default worker count of runCampaign and runFarm: the walk's
    // count without the lane cap.
    EXPECT_GE(usableCpus(), prewarmWalkWorkers());
#ifdef __linux__
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(usableCpus(), static_cast<unsigned>(CPU_COUNT(&saved)));
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned confined = usableCpus();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(confined, 1u);
#endif
}

} // namespace
} // namespace rat::sim
