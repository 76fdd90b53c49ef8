/**
 * @file
 * Determinism pin for a non-classic runahead variant: the `capped`
 * variant on the MIX2 pair (art,gzip — the same workload and windows
 * as tests/sim/test_determinism.cc) must serialize byte-identically
 * run-to-run and byte-identically to the committed golden capture
 * under tests/data/golden_mix2/RaT_capped.json, with cycle skipping
 * both on and off. This pins non-classic variants to their day-one
 * behavior exactly like the nine classic-policy goldens.
 *
 * Re-capture (only for an *intentional* semantic change; explain it in
 * the same commit):
 *   RATSIM_CAPTURE_GOLDEN_DIR=tests/data/golden_mix2 \
 *     ./build/tests/ratsim_tests --gtest_filter='RaVariantGolden.*'
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "report/serialize.hh"
#include "runahead/variant.hh"
#include "sim/experiment.hh"
#include "sim/workloads.hh"

namespace rat::sim {
namespace {

/** Same windows as the classic golden_mix2 determinism captures. */
SimConfig
cappedMix2Config(bool cycle_skipping)
{
    SimConfig cfg;
    cfg.prewarmInsts = 100000;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 10000;
    cfg.core.cycleSkipping = cycle_skipping;
    cfg.core.rat.variant = runahead::RaVariant::Capped;
    return cfg;
}

std::string
runCappedMix2Json(bool cycle_skipping)
{
    const SimConfig base = cappedMix2Config(cycle_skipping);
    const Workload w = Workload::fromPrograms({"art", "gzip"});
    TechniqueSpec tech = techniqueOf(core::PolicyKind::Rat);
    tech.rat = base.core.rat;
    const SimResult r =
        Simulator(configFor(base, tech, 2), w.programs).run();
    return report::toJson(r).dump(2) + "\n";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(RaVariantGolden, CappedMix2ByteIdenticalToGolden)
{
    const std::string first = runCappedMix2Json(true);

    if (const char *capture = std::getenv("RATSIM_CAPTURE_GOLDEN_DIR")) {
        const std::string path =
            std::string(capture) + "/RaT_capped.json";
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.is_open()) << "cannot write " << path;
        out << first;
        return;
    }

    // Run-to-run determinism.
    EXPECT_EQ(first, runCappedMix2Json(true));

    // Cycle skipping must be bit-identical for the capped horizon too
    // (the engine's exitAt feeds the quiescence clamp).
    EXPECT_EQ(first, runCappedMix2Json(false));

    // Committed day-one capture.
    const std::string path =
        RATSIM_TEST_DATA_DIR "/golden_mix2/RaT_capped.json";
    const std::string golden = slurp(path);
    ASSERT_FALSE(golden.empty()) << "missing golden " << path;
    EXPECT_EQ(first, golden) << "drift against " << path;
}

} // namespace
} // namespace rat::sim
