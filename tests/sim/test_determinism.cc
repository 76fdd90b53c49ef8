/**
 * @file
 * Whole-result determinism pins for every scheduling policy.
 *
 * Each policy runs the same MIX2 workload (art,gzip — one memory-bound
 * and one ILP-bound thread, so runahead, flush and resource-control
 * paths all trigger) twice, and the *full* serialized SimResult JSON
 * must be byte-identical between the runs and byte-identical to the
 * golden files committed under tests/data/golden_mix2/. The nine
 * policy goldens were captured from the pre-event-driven broadcast
 * scheduler, so this test is the proof that the event-driven wakeup
 * refactor (see DESIGN.md "Event-driven wakeup") changed the
 * simulator's speed and nothing else.
 *
 * Two more inputs at the same windows, FLUSH_mix4.json and
 * RaT_racache.json (see goldenCases), were captured from the
 * event-driven scheduler while a test still asserted it byte-identical
 * to the broadcast reference on exactly these runs. RaT_digest.json
 * pins the state digest itself: RaT on art,gzip with a digest sample
 * every 500 cycles, so a reordered or dropped digest field fails here.
 *
 * The nine art,gzip policies share one prewarm identity, so they also
 * run as one campaign (serial and on four workers): all but the first
 * cell of each job restore the post-prewarm checkpoint instead of
 * walking, and every cell must still match its golden byte for byte.
 *
 * Re-capture (only for an *intentional* semantic change; explain it in
 * the same commit):
 *   RATSIM_CAPTURE_GOLDEN_DIR=tests/data/golden_mix2 \
 *     ./build/tests/ratsim_tests --gtest_filter='Determinism.*'
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "policy/factory.hh"
#include "report/serialize.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/workloads.hh"

namespace rat::sim {
namespace {

/** All nine techniques, in PolicyKind order. */
const std::vector<core::PolicyKind> kAllPolicies = {
    core::PolicyKind::RoundRobin, core::PolicyKind::Icount,
    core::PolicyKind::Stall,      core::PolicyKind::Flush,
    core::PolicyKind::Dcra,       core::PolicyKind::HillClimbing,
    core::PolicyKind::Rat,        core::PolicyKind::RatDcra,
    core::PolicyKind::MlpAware,
};

/** One pinned run and the capture it must reproduce. */
struct GoldenCase {
    std::string file; ///< under tests/data/golden_mix2/
    std::vector<std::string> programs;
    core::PolicyKind policy;
    bool runaheadCache = false;
    Cycle digestWindow = 0; ///< 0 = no digest stream
};

/** Short windows keep two runs of every case affordable in CI. */
SimConfig
determinismConfig(Cycle digest_window = 0)
{
    SimConfig cfg;
    cfg.prewarmInsts = 100000;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 10000;
    cfg.digestWindow = digest_window;
    return cfg;
}

/**
 * The nine policies on MIX2, plus two runs they do not reach: FLUSH on
 * four memory-bound threads (a squash on nearly every detected L2
 * miss, so every squash must unlink the scheduler's intrusive lists)
 * and RaT with the runahead cache on (off by default; INV propagates
 * through registers, store-dependent chains and pseudo-retired stores).
 * Last, RaT on MIX2 with its state-digest stream.
 */
std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    for (const core::PolicyKind kind : kAllPolicies) {
        std::string name = policy::policyKindName(kind);
        for (char &c : name) {
            if (c == '+')
                c = '_';
        }
        cases.push_back({name + ".json", {"art", "gzip"}, kind});
    }
    cases.push_back({"FLUSH_mix4.json", {"art", "mcf", "swim", "twolf"},
                     core::PolicyKind::Flush});
    cases.push_back(
        {"RaT_racache.json", {"art", "mcf"}, core::PolicyKind::Rat, true});
    cases.push_back({"RaT_digest.json", {"art", "gzip"},
                     core::PolicyKind::Rat, false, 500});
    return cases;
}

TechniqueSpec
techniqueOf(const GoldenCase &golden)
{
    TechniqueSpec tech;
    tech.label = policy::policyKindName(golden.policy);
    tech.policy = golden.policy;
    tech.rat.useRunaheadCache = golden.runaheadCache;
    return tech;
}

std::string
resultJson(const SimResult &r)
{
    return report::toJson(r).dump(2) + "\n";
}

std::string
runJson(const GoldenCase &golden)
{
    ExperimentRunner runner(determinismConfig(golden.digestWindow));
    return resultJson(runner.runWorkload(
        Workload::fromPrograms(golden.programs), techniqueOf(golden)));
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

TEST(Determinism, EveryPolicyMix2ByteIdenticalToGolden)
{
    const char *capture = std::getenv("RATSIM_CAPTURE_GOLDEN_DIR");
    for (const GoldenCase &golden : goldenCases()) {
        SCOPED_TRACE(golden.file);
        const std::string first = runJson(golden);

        if (capture) {
            const std::string path = std::string(capture) + "/" + golden.file;
            std::ofstream out(path, std::ios::binary);
            ASSERT_TRUE(out.is_open()) << "cannot write " << path;
            out << first;
            continue;
        }

        // Run-to-run determinism: a fresh simulator must reproduce the
        // full result byte-for-byte.
        EXPECT_EQ(first, runJson(golden));

        const std::string path =
            std::string(RATSIM_TEST_DATA_DIR "/golden_mix2/") + golden.file;
        const std::string expected = slurp(path);
        ASSERT_FALSE(expected.empty()) << "missing golden " << path;
        EXPECT_EQ(first, expected) << "drift against " << path;
    }
    if (capture)
        return;

    // Campaign pass: the nine art,gzip policies as one runCampaign,
    // through the shared-prewarm path (the digest case needs another
    // base config).
    std::vector<GoldenCase> mix2;
    CampaignSpec spec;
    spec.base = determinismConfig();
    spec.workloads = {Workload::fromPrograms({"art", "gzip"})};
    for (const GoldenCase &golden : goldenCases()) {
        if (golden.programs == spec.workloads.front().programs &&
            !golden.digestWindow) {
            mix2.push_back(golden);
            spec.techniques.push_back(techniqueOf(golden));
        }
    }
    ASSERT_EQ(mix2.size(), kAllPolicies.size());
    for (const unsigned parallelism : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "parallelism " << parallelism);
        spec.parallelism = parallelism;
        const CampaignOutcome outcome = runCampaign(spec);
        ASSERT_EQ(outcome.cells.size(), mix2.size());
        // One identity: one walk per job, and one job per worker.
        EXPECT_EQ(outcome.prewarmWalks, parallelism);
        EXPECT_EQ(outcome.prewarmRestores, mix2.size() - parallelism);
        for (std::size_t i = 0; i < mix2.size(); ++i) {
            const std::string path =
                std::string(RATSIM_TEST_DATA_DIR "/golden_mix2/") +
                mix2[i].file;
            EXPECT_EQ(resultJson(outcome.cells[i].result), slurp(path))
                << "campaign cell drifts against " << path;
        }
    }
}

} // namespace
} // namespace rat::sim
