/**
 * @file
 * Round-trip tests of the config/result serializers: every field
 * survives toJson -> dump -> parse -> fromJson exactly, malformed
 * documents are rejected instead of half-read, and literal pins hold
 * the bytes of two cache keys and of a result with every optional
 * block.
 */

#include <gtest/gtest.h>

#include "report/result_cache.hh"
#include "report/serialize.hh"
#include "sim/workloads.hh"

namespace rat::report {
namespace {

/** A config with every serialized leaf moved off its default value. */
sim::SimConfig
nonDefaultConfig()
{
    sim::SimConfig cfg;
    cfg.core.numThreads = 4;
    cfg.core.fetchWidth = 4;
    cfg.core.fetchThreads = 1;
    cfg.core.renameWidth = 6;
    cfg.core.issueWidth = 7;
    cfg.core.commitWidth = 5;
    cfg.core.frontendDelay = 9;
    cfg.core.robEntries = 256;
    cfg.core.intIqEntries = 48;
    cfg.core.fpIqEntries = 32;
    cfg.core.lsIqEntries = 24;
    cfg.core.lsqEntries = 40;
    cfg.core.intRegs = 128;
    cfg.core.fpRegs = 96;
    cfg.core.intUnits = 2;
    cfg.core.fpUnits = 1;
    cfg.core.memUnits = 3;
    cfg.core.fetchQueueEntries = 16;
    cfg.core.btbMissPenalty = 3;
    cfg.core.mispredictRedirect = 4;
    cfg.core.ifetchPrefetchLines = 2;
    cfg.core.policy = core::PolicyKind::RatDcra;
    cfg.core.rat.variant = runahead::RaVariant::UselessFilter;
    cfg.core.rat.cappedMaxCycles = 96;
    cfg.core.rat.uselessFilterThreshold = 2;
    cfg.core.rat.uselessFilterReprobe = 17;
    cfg.core.rat.dropFpInRunahead = false;
    cfg.core.rat.useRunaheadCache = true;
    cfg.core.rat.runaheadCacheLines = 128;
    cfg.core.rat.disablePrefetch = true;
    cfg.core.rat.noFetchInRunahead = true;
    cfg.core.predictor.tableEntries = 1024;
    cfg.core.predictor.historyBits = 12;
    cfg.core.predictor.weightLimit = 63;
    cfg.mem.l1i = {"I1", 32 * 1024, 2, 32, 2, 4};
    cfg.mem.l1d = {"D1", 16 * 1024, 8, 128, 4, 16};
    cfg.mem.l2 = {"U2", 512 * 1024, 16, 32, 15, 64};
    cfg.mem.memLatency = 250;
    cfg.prewarmInsts = 12345;
    cfg.warmupCycles = 777;
    cfg.measureCycles = 4242;
    cfg.seed = 99;
    cfg.sampleWindow = 2500;
    cfg.digestWindow = 300;
    cfg.sampled = true;
    cfg.samplePhases = 6;
    cfg.phaseWindow = 8192;
    cfg.phaseSpanWindows = 48;
    cfg.sampleWarmupCycles = 2000;
    cfg.sampleMeasureCycles = 23250;
    cfg.sampleIndex = 2;
    return cfg;
}

/**
 * Walk @p changed beside @p base, a tree of the same shape: every leaf
 * of @p changed must be absent from @p base or differ from it, and
 * every member of @p base must still be present in @p changed.
 */
void
expectEveryLeafDiffers(const Json &changed, const Json *base,
                       const std::string &path)
{
    if (!changed.isObject()) {
        EXPECT_TRUE(!base || *base != changed)
            << path << " keeps its default " << changed.dump();
        return;
    }
    if (base) {
        for (const auto &[key, value] : base->members())
            EXPECT_NE(changed.find(key), nullptr) << path << "." << key;
    }
    for (const auto &[key, value] : changed.members())
        expectEveryLeafDiffers(value, base ? base->find(key) : nullptr,
                               path + "." + key);
}

/** A fabricated two-thread result with distinctive counters. */
sim::SimResult
sampleResult()
{
    sim::SimResult r;
    r.cycles = 20000;
    sim::ThreadResult t0;
    t0.program = "art";
    t0.ipc = 0.7023;
    t0.l2Mpki = 15.885022692889562;
    t0.core.committedInsts = 14046;
    t0.core.executedInsts = 20011;
    t0.core.fetchedInsts = 30123;
    t0.core.pseudoRetired = 800;
    t0.core.invalidInsts = 55;
    t0.core.runaheadEntries = 39;
    t0.core.uselessRunaheadEpisodes = 3;
    t0.core.runaheadCycles = 15216;
    t0.core.normalCycles = 4784;
    t0.core.branches = 3000;
    t0.core.branchMispredicts = 120;
    t0.core.squashedInsts = 42;
    t0.core.normalRegCycles = 123456;
    t0.core.runaheadRegCycles = 654321;
    t0.mem.loads = 4000;
    t0.mem.stores = 1500;
    t0.mem.l1dMisses = 900;
    t0.mem.l2DemandMisses = 223;
    t0.mem.ifetchL1Misses = 17;
    t0.mem.ifetchL2Misses = 5;
    t0.mem.ifetchPrefetches = 340;
    t0.mem.raMemPrefetches = 88;
    t0.mem.raL2Prefetches = 21;
    r.threads.push_back(t0);
    sim::ThreadResult t1;
    t1.program = "mcf";
    t1.ipc = 0.05445;
    t1.l2Mpki = 47.2;
    t1.core.committedInsts = 1089;
    t1.mem.loads = 777;
    r.threads.push_back(t1);
    return r;
}

/**
 * sampleResult() with every optional block on: telemetry (samples and
 * the three histograms), a digest stream, and a merged sampled block.
 */
sim::SimResult
fullResult()
{
    sim::SimResult r = sampleResult();
    r.telemetry.enabled = true;
    r.telemetry.window = 5000;
    r.telemetry.samples.push_back({25000, 4200, 5100, 300, 96, 20, 14});
    r.telemetry.samples.push_back({30000, 3900, 4800, 0, 512, 64, 3});
    r.telemetry.episodeCycles.sample(410);
    r.telemetry.episodeCycles.sample(388);
    r.telemetry.missLatency.sample(423);
    r.telemetry.issueToRetire.sample(0);
    r.telemetry.issueToRetire.sample(7);
    r.digest.window = 300;
    r.digest.samples.push_back({20300, 0x9E3779B97F4A7C15ull});
    r.digest.samples.push_back({20600, 42});
    r.sampled.enabled = true;
    r.sampled.merged = true;
    r.sampled.phases = 3;
    r.sampled.totalWindows = 48;
    r.sampled.ipcError = 0.0123;
    r.sampled.hmeanError = 0.25;
    return r;
}

TEST(Serialize, NonDefaultConfigMovesEveryLeaf)
{
    const Json base = toJson(sim::SimConfig{});
    expectEveryLeafDiffers(toJson(nonDefaultConfig()), &base, "config");
}

TEST(Serialize, KeysAndResultsMatchGolden)
{
    // Literal bytes: a renamed, reordered or dropped member moves every
    // cache key and cached cell, and must fail here first.
    const std::string defaultKey =
        R"({"v":2,"config":{"core":{"numThreads":2,"fetchWidth":8,)"
        R"("fetchThreads":2,"renameWidth":8,"issueWidth":8,"commitWidth":8,)"
        R"("frontendDelay":5,"robEntries":512,"intIqEntries":64,)"
        R"("fpIqEntries":64,"lsIqEntries":64,"lsqEntries":64,"intRegs":320,)"
        R"("fpRegs":320,"intUnits":6,"fpUnits":3,"memUnits":4,)"
        R"("fetchQueueEntries":32,"btbMissPenalty":2,"mispredictRedirect":2,)"
        R"("ifetchPrefetchLines":3,"policy":"ICOUNT",)"
        R"("rat":{"variant":"classic","cappedMaxCycles":128,)"
        R"("uselessFilterThreshold":3,"uselessFilterReprobe":2,)"
        R"("dropFpInRunahead":true,"useRunaheadCache":false,)"
        R"("runaheadCacheLines":64,"disablePrefetch":false,)"
        R"("noFetchInRunahead":false},"predictor":{"tableEntries":4096,)"
        R"("historyBits":28,"weightLimit":127}},"mem":{"l1i":{"name":"L1I",)"
        R"("sizeBytes":65536,"ways":4,"lineBytes":64,"latency":1,"mshrs":8},)"
        R"("l1d":{"name":"L1D","sizeBytes":65536,"ways":4,"lineBytes":64,)"
        R"("latency":3,"mshrs":64},"l2":{"name":"L2","sizeBytes":1048576,)"
        R"("ways":8,"lineBytes":64,"latency":20,"mshrs":128},)"
        R"("memLatency":400},"prewarmInsts":1000000,"warmupCycles":20000,)"
        R"("measureCycles":100000,"seed":1},"programs":["art","mcf"]})";
    const std::string nonDefaultKey =
        R"({"v":2,"config":{"core":{"numThreads":4,"fetchWidth":4,)"
        R"("fetchThreads":1,"renameWidth":6,"issueWidth":7,"commitWidth":5,)"
        R"("frontendDelay":9,"robEntries":256,"intIqEntries":48,)"
        R"("fpIqEntries":32,"lsIqEntries":24,"lsqEntries":40,"intRegs":128,)"
        R"("fpRegs":96,"intUnits":2,"fpUnits":1,"memUnits":3,)"
        R"("fetchQueueEntries":16,"btbMissPenalty":3,"mispredictRedirect":4,)"
        R"("ifetchPrefetchLines":2,"policy":"RaT+DCRA",)"
        R"("rat":{"variant":"useless-filter","cappedMaxCycles":96,)"
        R"("uselessFilterThreshold":2,"uselessFilterReprobe":17,)"
        R"("dropFpInRunahead":false,"useRunaheadCache":true,)"
        R"("runaheadCacheLines":128,"disablePrefetch":true,)"
        R"("noFetchInRunahead":true},"predictor":{"tableEntries":1024,)"
        R"("historyBits":12,"weightLimit":63}},"mem":{"l1i":{"name":"I1",)"
        R"("sizeBytes":32768,"ways":2,"lineBytes":32,"latency":2,"mshrs":4},)"
        R"("l1d":{"name":"D1","sizeBytes":16384,"ways":8,"lineBytes":128,)"
        R"("latency":4,"mshrs":16},"l2":{"name":"U2","sizeBytes":524288,)"
        R"("ways":16,"lineBytes":32,"latency":15,"mshrs":64},)"
        R"("memLatency":250},"prewarmInsts":12345,"warmupCycles":777,)"
        R"("measureCycles":4242,"seed":99,"sampleWindow":2500,)"
        R"("digestWindow":300,"sampled":{"phases":6,"phaseWindow":8192,)"
        R"("spanWindows":48,"warmupCycles":2000,"measureCycles":23250,)"
        R"("sampleIndex":2}},"programs":["art","mcf"]})";
    const std::vector<std::string> programs = {"art", "mcf"};
    EXPECT_EQ(ResultCache::keyFor(sim::SimConfig{}, programs), defaultKey);
    EXPECT_EQ(ResultCache::keyFor(nonDefaultConfig(), programs),
              nonDefaultKey);

    // Everything up to the sampled block, which has two shapes.
    const std::string head =
        R"({"cycles":20000,"threads":[{"program":"art","ipc":0.7023,)"
        R"("l2Mpki":15.885022692889562,"core":{"committedInsts":14046,)"
        R"("executedInsts":20011,"fetchedInsts":30123,"pseudoRetired":800,)"
        R"("invalidInsts":55,"runaheadEntries":39,)"
        R"("uselessRunaheadEpisodes":3,"runaheadCycles":15216,)"
        R"("normalCycles":4784,"branches":3000,"branchMispredicts":120,)"
        R"("squashedInsts":42,"normalRegCycles":123456,)"
        R"("runaheadRegCycles":654321},"mem":{"loads":4000,"stores":1500,)"
        R"("l1dMisses":900,"l2DemandMisses":223,"ifetchL1Misses":17,)"
        R"("ifetchL2Misses":5,"ifetchPrefetches":340,"raMemPrefetches":88,)"
        R"("raL2Prefetches":21}},{"program":"mcf","ipc":0.05445,)"
        R"("l2Mpki":47.2,"core":{"committedInsts":1089,"executedInsts":0,)"
        R"("fetchedInsts":0,"pseudoRetired":0,"invalidInsts":0,)"
        R"("runaheadEntries":0,"uselessRunaheadEpisodes":0,)"
        R"("runaheadCycles":0,"normalCycles":0,"branches":0,)"
        R"("branchMispredicts":0,"squashedInsts":0,"normalRegCycles":0,)"
        R"("runaheadRegCycles":0},"mem":{"loads":777,"stores":0,)"
        R"("l1dMisses":0,"l2DemandMisses":0,"ifetchL1Misses":0,)"
        R"("ifetchL2Misses":0,"ifetchPrefetches":0,"raMemPrefetches":0,)"
        R"("raL2Prefetches":0}}],"telemetry":{"window":5000,)"
        R"("samples":[[25000,4200,5100,300,96,20,14],[30000,3900,4800,0,512,)"
        R"(64,3]],"episodeCycles":{"total":2,"sum":798,"buckets":[0,0,0,0,0,)"
        R"(0,0,0,2]},"missLatency":{"total":1,"sum":423,"buckets":[0,0,0,0,0,)"
        R"(0,0,0,1]},"issueToRetire":{"total":2,"sum":7,"buckets":[1,0,1]}},)"
        R"("digest":{"window":300,"samples":[[20300,11400714819323198485],)"
        R"([20600,42]]})";
    sim::SimResult r = fullResult();
    EXPECT_EQ(toJson(r).dump(),
              head + R"(,"sampled":{"merged":true,"phases":3,)"
                     R"("totalWindows":48,"ipcError":0.0123,)"
                     R"("hmeanError":0.25}})");
    r.sampled = sim::SampledMeta{};
    r.sampled.enabled = true;
    r.sampled.sampleIndex = 2;
    r.sampled.windowIndex = 17;
    r.sampled.weight = 12;
    EXPECT_EQ(toJson(r).dump(),
              head + R"(,"sampled":{"merged":false,"sampleIndex":2,)"
                     R"("windowIndex":17,"weight":12}})");
}

TEST(Serialize, SimConfigRoundTripsExactly)
{
    const sim::SimConfig cfg = nonDefaultConfig();
    const std::string text = toJson(cfg).dump(2);

    const auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed);
    sim::SimConfig back; // defaults, all overwritten by fromJson
    ASSERT_TRUE(fromJson(*parsed, back));

    // Field-exact equality via the canonical serialization.
    EXPECT_EQ(toJson(back).dump(), toJson(cfg).dump());
    EXPECT_EQ(back.core.policy, core::PolicyKind::RatDcra);
    EXPECT_EQ(back.core.predictor.weightLimit, 63);
    EXPECT_EQ(back.mem.l1i.name, "I1");
    EXPECT_EQ(back.seed, 99u);
}

TEST(Serialize, DefaultConfigRoundTripsExactly)
{
    const sim::SimConfig cfg;
    const auto parsed = Json::parse(toJson(cfg).dump());
    ASSERT_TRUE(parsed);
    sim::SimConfig back;
    back.seed = 1234; // ensure fromJson actually writes it
    ASSERT_TRUE(fromJson(*parsed, back));
    EXPECT_EQ(toJson(back).dump(), toJson(cfg).dump());
}

TEST(Serialize, SimResultRoundTripsExactly)
{
    const sim::SimResult r = sampleResult();
    const auto parsed = Json::parse(toJson(r).dump(2));
    ASSERT_TRUE(parsed);
    sim::SimResult back;
    ASSERT_TRUE(fromJson(*parsed, back));

    EXPECT_EQ(toJson(back).dump(), toJson(r).dump());
    ASSERT_EQ(back.threads.size(), 2u);
    EXPECT_EQ(back.threads[0].core.runaheadCycles, 15216u);
    EXPECT_EQ(back.threads[0].mem.raMemPrefetches, 88u);
    // Doubles round-trip bit-for-bit, not approximately.
    EXPECT_EQ(back.threads[0].l2Mpki, 15.885022692889562);
    EXPECT_EQ(back.threads[1].ipc, 0.05445);
}

TEST(Serialize, GroupMetricsRoundTripsExactly)
{
    sim::GroupMetrics gm;
    gm.technique = "RaT";
    gm.group = sim::WorkloadGroup::MEM4;
    gm.meanThroughput = 0.3625;
    gm.meanFairness = 0.41;
    gm.meanEd2 = 4.19e5;
    gm.results.push_back(sampleResult());

    const auto parsed = Json::parse(toJson(gm).dump(2));
    ASSERT_TRUE(parsed);
    sim::GroupMetrics back;
    ASSERT_TRUE(fromJson(*parsed, back));
    EXPECT_EQ(back.group, sim::WorkloadGroup::MEM4);
    EXPECT_EQ(back.technique, "RaT");
    EXPECT_EQ(toJson(back).dump(), toJson(gm).dump());
}

TEST(Serialize, NegativeWeightLimitRoundTrips)
{
    // weightLimit is the one signed config field; the reader must
    // accept the negative values the writer can produce.
    sim::SimConfig cfg;
    cfg.core.predictor.weightLimit = -63;
    const auto parsed = Json::parse(toJson(cfg).dump());
    ASSERT_TRUE(parsed);
    sim::SimConfig back;
    ASSERT_TRUE(fromJson(*parsed, back));
    EXPECT_EQ(back.core.predictor.weightLimit, -63);
}

TEST(Serialize, FromJsonRejectsMissingAndIllTypedFields)
{
    Json cfg = toJson(sim::SimConfig{});
    sim::SimConfig out;
    ASSERT_TRUE(fromJson(cfg, out));

    Json no_seed = cfg;
    // Rebuild without the seed member (operator[] would re-add it).
    Json pruned = Json::object();
    for (const auto &[key, value] : no_seed.members()) {
        if (key != "seed")
            pruned[key] = value;
    }
    EXPECT_FALSE(fromJson(pruned, out));

    Json bad_type = cfg;
    bad_type["seed"] = Json("one");
    EXPECT_FALSE(fromJson(bad_type, out));

    Json bad_policy = cfg;
    bad_policy["core"]["policy"] = Json("NOT_A_POLICY");
    EXPECT_FALSE(fromJson(bad_policy, out));

    // An optional member may be absent (it reads as off), but one that
    // is present must decode.
    Json bad_sample_window = cfg;
    bad_sample_window["sampleWindow"] = Json("x");
    EXPECT_FALSE(fromJson(bad_sample_window, out));
    Json bad_digest_window = cfg;
    bad_digest_window["digestWindow"] = Json(-1);
    EXPECT_FALSE(fromJson(bad_digest_window, out));
    Json bad_sample_index = toJson(nonDefaultConfig());
    bad_sample_index["sampled"]["sampleIndex"] = Json("x");
    EXPECT_FALSE(fromJson(bad_sample_index, out));
}

TEST(Serialize, ResultMetricsAndCsvShapes)
{
    const sim::SimResult r = sampleResult();
    const Json metrics = resultMetricsJson(r);
    EXPECT_EQ(metrics.at("committedTotal").asU64(),
              r.committedTotal());
    EXPECT_EQ(metrics.at("throughputEq1").asDouble(),
              r.throughputEq1());

    const std::string csv = threadResultsCsv(r).dump();
    EXPECT_NE(csv.find("thread,program,ipc"), std::string::npos);
    EXPECT_NE(csv.find("art"), std::string::npos);
    EXPECT_NE(csv.find("mcf"), std::string::npos);
}

} // namespace
} // namespace rat::report
