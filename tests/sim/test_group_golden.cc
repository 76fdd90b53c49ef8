/**
 * @file
 * Group-level pin: MIX2 under RaT at the golden_mix2 windows (100k
 * prewarm, 5k warm-up, 10k measured) must serialize byte-identically
 * to tests/data/golden_mix2/MIX2_group_RaT.json. The per-run goldens
 * pin single SimResults; this one also pins the group fold on top of
 * them: the workload order, the group means and the Eq. 2 fairness
 * against the single-thread ICOUNT baselines.
 *
 * Re-capture (only for an *intentional* semantic change; explain it in
 * the same commit):
 *   RATSIM_CAPTURE_GOLDEN_DIR=tests/data/golden_mix2 \
 *     ./build/tests/ratsim_tests --gtest_filter='GroupGolden.*'
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "report/serialize.hh"
#include "sim/campaign.hh"
#include "sim/workloads.hh"

namespace rat::sim {
namespace {

std::string
mix2GroupJson()
{
    CampaignSpec spec;
    spec.base.prewarmInsts = 100000;
    spec.base.warmupCycles = 5000;
    spec.base.measureCycles = 10000;
    spec.techniques = {techniqueOf(core::PolicyKind::Rat)};
    spec.groups = {WorkloadGroup::MIX2};
    const CampaignOutcome baselines = runCampaign(baselineSpec(spec));
    const GroupMetrics gm =
        groupMetrics(spec, runCampaign(spec), &baselines).at(0).at(0);
    return report::toJson(gm).dump(2) + "\n";
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

TEST(GroupGolden, Mix2RatByteIdenticalToGolden)
{
    const std::string json = mix2GroupJson();

    if (const char *capture = std::getenv("RATSIM_CAPTURE_GOLDEN_DIR")) {
        const std::string path =
            std::string(capture) + "/MIX2_group_RaT.json";
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.is_open()) << "cannot write " << path;
        out << json;
        return;
    }

    const std::string path =
        RATSIM_TEST_DATA_DIR "/golden_mix2/MIX2_group_RaT.json";
    const std::string golden = slurp(path);
    ASSERT_FALSE(golden.empty()) << "missing golden " << path;
    EXPECT_EQ(json, golden) << "drift against " << path;
}

} // namespace
} // namespace rat::sim
