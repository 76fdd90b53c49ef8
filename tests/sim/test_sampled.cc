/**
 * @file
 * Tests for sampled simulation (sim/sampled.hh): the degenerate
 * single-phase configuration is bit-exact, per-sample cells merge to
 * the whole-run extrapolation (the campaign/farm path), sampled
 * configurations and results serialize behind the `sampled` gate with
 * distinct cache keys, the pinned operating point meets the
 * accuracy / detailed-work-reduction contract, and a refused checkpoint
 * is walked past once and replaced.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hh"
#include "policy/factory.hh"
#include "report/serialize.hh"
#include "sim/checkpoint.hh"
#include "sim/metrics.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

const std::vector<std::string> kMix = {"art", "gzip"};

/** Scheduling policies of the full paper sweep, in report order. */
const std::vector<core::PolicyKind> kAllPolicies = {
    core::PolicyKind::RoundRobin, core::PolicyKind::Icount,
    core::PolicyKind::Stall,      core::PolicyKind::Flush,
    core::PolicyKind::Dcra,       core::PolicyKind::HillClimbing,
    core::PolicyKind::Rat,        core::PolicyKind::RatDcra,
    core::PolicyKind::MlpAware,
};

SimConfig
baseConfig()
{
    SimConfig cfg;
    cfg.core.numThreads = 2;
    cfg.prewarmInsts = 50000;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 20000;
    return cfg;
}

TEST(Sampled, DegenerateSinglePhaseIsExact)
{
    // One phase over one window, with the per-sample windows equal to
    // the full run's: the "sampled" run restores the post-prewarm
    // checkpoint and then executes exactly what the exact run
    // executes. Results must be bit-identical — the strongest possible
    // statement of restore fidelity.
    SimConfig cfg = baseConfig();
    cfg.sampled = true;
    cfg.samplePhases = 1;
    cfg.phaseSpanWindows = 1;
    cfg.phaseWindow = 1024;
    cfg.sampleWarmupCycles = cfg.warmupCycles;
    cfg.sampleMeasureCycles = cfg.measureCycles;

    SimConfig exact = baseConfig();
    Simulator sim(exact, kMix);
    const SimResult full = sim.run();
    const SimResult sampled = simulateCell(cfg, kMix);

    ASSERT_EQ(full.threads.size(), sampled.threads.size());
    for (std::size_t t = 0; t < full.threads.size(); ++t) {
        EXPECT_EQ(full.threads[t].ipc, sampled.threads[t].ipc);
        EXPECT_EQ(full.threads[t].core.committedInsts,
                  sampled.threads[t].core.committedInsts);
        EXPECT_EQ(full.threads[t].mem.l2DemandMisses,
                  sampled.threads[t].mem.l2DemandMisses);
    }
    EXPECT_TRUE(sampled.sampled.enabled);
    EXPECT_TRUE(sampled.sampled.merged);
    EXPECT_EQ(sampled.sampled.phases, 1u);
    // A single sample has zero dispersion: the error estimate reports
    // the degenerate case as exact.
    EXPECT_EQ(sampled.sampled.ipcError, 0.0);
    EXPECT_EQ(sampled.sampled.hmeanError, 0.0);
}

TEST(Sampled, PerSampleCellsMergeToWholeRun)
{
    // The campaign/farm path runs each sample as an independent cell
    // (cfg.sampleIndex >= 0) and merges afterwards; it must reproduce
    // the one-shot whole-run extrapolation bit-for-bit.
    SimConfig cfg = baseConfig();
    cfg.sampled = true;
    cfg.samplePhases = 4;
    cfg.phaseWindow = 2048;
    cfg.phaseSpanWindows = 24;
    cfg.sampleWarmupCycles = 500;
    cfg.sampleMeasureCycles = 2000;

    const SimResult oneShot = simulateCell(cfg, kMix);

    const trace::PhaseProfile &plan = samplePlanFor(cfg, kMix);
    std::vector<SimResult> cells;
    for (std::size_t i = 0; i < plan.samples.size(); ++i) {
        SimConfig cell = cfg;
        cell.sampleIndex = static_cast<int>(i);
        cells.push_back(simulateCell(cell, kMix));
        EXPECT_TRUE(cells.back().sampled.enabled);
        EXPECT_FALSE(cells.back().sampled.merged);
        EXPECT_EQ(cells.back().sampled.weight,
                  plan.samples[i].weight);
    }
    const SimResult merged = mergeSampledResults(cfg, kMix, cells);

    EXPECT_EQ(report::toJson(oneShot).dump(),
              report::toJson(merged).dump());
}

TEST(Sampled, ConfigSerializationIsGatedAndDistinct)
{
    // Exact-mode configs serialize without any sampled block — cache
    // keys and goldens predate sampling and must stay byte-identical —
    // even when sampled tuning fields are (meaninglessly) customized.
    SimConfig exact = baseConfig();
    SimConfig tuned = baseConfig();
    tuned.samplePhases = 16;
    tuned.phaseWindow = 512;
    const std::string exactDump = report::toJson(exact).dump();
    EXPECT_EQ(exactDump, report::toJson(tuned).dump());
    EXPECT_EQ(exactDump.find("sampled"), std::string::npos);

    // Sampled configs get their own keys, distinct per tuning knob and
    // per sample index (each cell caches separately).
    SimConfig s = baseConfig();
    s.sampled = true;
    const std::string sDump = report::toJson(s).dump();
    EXPECT_NE(sDump, exactDump);
    SimConfig s2 = s;
    s2.samplePhases = 8;
    EXPECT_NE(sDump, report::toJson(s2).dump());
    SimConfig s3 = s;
    s3.sampleIndex = 0;
    EXPECT_NE(sDump, report::toJson(s3).dump());

    // Round-trip: a sampled config survives dump -> parse -> dump.
    SimConfig parsed;
    ASSERT_TRUE(report::fromJson(report::toJson(s3), parsed));
    EXPECT_TRUE(parsed.sampled);
    EXPECT_EQ(parsed.sampleIndex, 0);
    EXPECT_EQ(report::toJson(parsed).dump(), report::toJson(s3).dump());
}

/**
 * The pinned operating point of the sampled-simulation contract
 * (bench/perf_sampled.cc pins the same numbers in CI): MIX2 mcf,eon at
 * seed 6, 4 phases of 8192-inst windows over a 48-window span, 2k+
 * 23.25k detailed cycles per sample against a 5k + 500k-cycle full
 * window. Detailed work: 4 x 25250 = 101000 cycles vs 505000 — an
 * exactly 5x reduction — at a measured worst-policy hmean-IPC error of
 * 0.80% (STALL). Everything here is deterministic (no host randomness
 * anywhere in the pipeline), so the 2% bound is a regression fence
 * with a 2.5x margin, not a statistical hope.
 */
SimConfig
pinnedOperatingPoint()
{
    SimConfig cfg;
    cfg.core.numThreads = 2;
    cfg.seed = 6;
    cfg.prewarmInsts = 100000;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 500000;
    cfg.sampled = true;
    cfg.samplePhases = 4;
    cfg.phaseWindow = 8192;
    cfg.phaseSpanWindows = 48;
    cfg.sampleWarmupCycles = 2000;
    cfg.sampleMeasureCycles = 23250;
    return cfg;
}

TEST(Sampled, PinnedOperatingPointMeetsErrorBound)
{
    const std::vector<std::string> mix = {"mcf", "eon"};
    const SimConfig base = pinnedOperatingPoint();

    // The deterministic >=5x detailed-work reduction: per-sample
    // detailed cycles vs the full warmup + measured window.
    const trace::PhaseProfile &plan = samplePlanFor(base, mix);
    const std::uint64_t detailed =
        plan.samples.size() *
        (base.sampleWarmupCycles + base.sampleMeasureCycles);
    EXPECT_LE(detailed * 5, base.warmupCycles + base.measureCycles);

    double worst = 0.0;
    for (const core::PolicyKind policy : kAllPolicies) {
        SimConfig sampledCfg = base;
        sampledCfg.core.policy = policy;
        SimConfig fullCfg = sampledCfg;
        fullCfg.sampled = false;

        Simulator full(fullCfg, mix);
        const double fullHmean = hmeanIpc(full.run());
        const double sampledHmean =
            hmeanIpc(simulateCell(sampledCfg, mix));
        ASSERT_GT(fullHmean, 0.0);
        const double errPct =
            100.0 * std::abs(sampledHmean - fullHmean) / fullHmean;
        EXPECT_LE(errPct, 2.0)
            << policy::policyKindName(policy) << ": sampled " << sampledHmean
            << " vs full " << fullHmean;
        worst = std::max(worst, errPct);
    }
    // Keep the headline honest: if accuracy regresses past the
    // measured 0.80% but stays under the contract, this still trips so
    // the regression is looked at rather than silently eroding margin.
    EXPECT_LE(worst, 1.5);
}

struct PlanPin {
    std::vector<std::string> programs;
    std::uint64_t seed;
    std::vector<trace::PhaseSample> samples; ///< (window, weight)
    const char *assignment;                  ///< cluster id per window
};

TEST(Sampled, PlanMatchesGolden)
{
    // The phase plans at the pinned operating point (4 phases,
    // 8192-instruction windows, a 48-window span, 100k prewarm),
    // captured before the profiler read PCs through scanPcs(). A
    // profiler or trace change that moves a plan moves every sampled
    // result; re-capture only on purpose.
    const PlanPin pins[] = {
        {{"mcf", "eon"},
         1,
         {{1, 23}, {27, 8}, {41, 8}, {45, 9}},
         "000000220011000000001122331133000000221122033333"},
        {{"mcf", "eon"},
         6,
         {{5, 18}, {15, 12}, {35, 12}, {41, 6}},
         "221100223300111100111122110000002222002233330000"},
        {{"art", "mcf", "gzip", "crafty"},
         1,
         {{13, 12}, {25, 6}, {39, 10}, {45, 20}},
         "333333003300003322220022111100333311222200333333"},
    };
    for (const PlanPin &pin : pins) {
        SimConfig cfg = pinnedOperatingPoint();
        cfg.core.numThreads = static_cast<unsigned>(pin.programs.size());
        cfg.seed = pin.seed;
        const trace::PhaseProfile &plan = samplePlanFor(cfg, pin.programs);
        const std::string label =
            pin.programs[0] + "... seed " + std::to_string(pin.seed);

        ASSERT_EQ(plan.samples.size(), pin.samples.size()) << label;
        for (std::size_t i = 0; i < pin.samples.size(); ++i) {
            EXPECT_EQ(plan.samples[i].windowIndex,
                      pin.samples[i].windowIndex)
                << label << " sample " << i;
            EXPECT_EQ(plan.samples[i].weight, pin.samples[i].weight)
                << label << " sample " << i;
        }
        std::string assignment;
        for (const unsigned cluster : plan.assignment)
            assignment += static_cast<char>('0' + cluster);
        EXPECT_EQ(assignment, pin.assignment) << label;
    }
}

TEST(Sampled, ResultSerializationRoundTrips)
{
    SimConfig cfg = baseConfig();
    cfg.sampled = true;
    cfg.samplePhases = 2;
    cfg.phaseSpanWindows = 8;
    cfg.phaseWindow = 1024;
    cfg.sampleWarmupCycles = 500;
    cfg.sampleMeasureCycles = 1500;
    const SimResult merged = simulateCell(cfg, kMix);
    ASSERT_TRUE(merged.sampled.enabled && merged.sampled.merged);

    SimResult parsed;
    ASSERT_TRUE(report::fromJson(report::toJson(merged), parsed));
    EXPECT_TRUE(parsed.sampled.enabled);
    EXPECT_TRUE(parsed.sampled.merged);
    EXPECT_EQ(parsed.sampled.phases, merged.sampled.phases);
    EXPECT_EQ(parsed.sampled.totalWindows, merged.sampled.totalWindows);
    EXPECT_EQ(report::toJson(parsed).dump(),
              report::toJson(merged).dump());

    // Exact-mode results still serialize without the block.
    Simulator sim(baseConfig(), kMix);
    const SimResult full = sim.run();
    EXPECT_EQ(report::toJson(full).dump().find("\"sampled\""),
              std::string::npos);
}

std::size_t
countOf(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(Sampled, RefusedCheckpointIsWalkedPastOnceAndReplaced)
{
    // A checkpoint file the codec refuses (written by a build with
    // another state layout, or torn by a concurrent writer) must cost
    // one warning and one walk, then be replaced in the process-wide
    // registry and on disk. The seed gives this test an identity no
    // other test in the process has put into the registry.
    SimConfig cfg = baseConfig();
    cfg.seed = 97;
    cfg.sampled = true;
    cfg.samplePhases = 2;
    cfg.phaseSpanWindows = 8;
    cfg.phaseWindow = 1024;
    cfg.sampleWarmupCycles = 500;
    cfg.sampleMeasureCycles = 1500;

    const trace::PhaseProfile &plan = samplePlanFor(cfg, kMix);
    ASSERT_FALSE(plan.samples.empty());
    const InstSeq position =
        cfg.prewarmInsts +
        InstSeq{plan.samples.front().windowIndex} * cfg.phaseWindow;
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.%s",
                  static_cast<unsigned long long>(
                      CheckpointCodec::fileKey(cfg, kMix, position)),
                  CheckpointCodec::kMagic);
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "sampled_refused_ckpt";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::filesystem::path file = dir / name;
    std::ofstream(file, std::ios::binary)
        << CheckpointCodec::kMagic << " torn checkpoint";

    testing::internal::CaptureStderr();
    const SimResult planted = simulateCell(cfg, kMix, dir.string());
    const SimResult plain = simulateCell(cfg, kMix);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(countOf(log, "checkpoint restore failed"), 1u) << log;
    EXPECT_EQ(report::toJson(planted).dump(), report::toJson(plain).dump());

    // The file now holds the walked state, and it restores.
    std::ifstream in(file, std::ios::binary);
    std::ostringstream blob;
    blob << in.rdbuf();
    SimConfig exec = cfg;
    exec.sampled = false;
    exec.prewarmInsts = 0;
    Simulator sim(exec, kMix);
    std::string error;
    EXPECT_TRUE(CheckpointCodec::restore(sim, blob.str(), &error)) << error;
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace rat::sim
