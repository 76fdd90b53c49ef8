#include "report/serialize.hh"

#include <limits>

#include "policy/factory.hh"
#include "runahead/variant.hh"
#include "sim/metrics.hh"
#include "sim/workloads.hh"

namespace rat::report {

namespace {

// Checked member extraction: each reader returns false when the member
// is absent or has the wrong type, leaving @p out untouched.

bool
getU64(const Json &obj, const char *key, std::uint64_t &out)
{
    const Json *v = obj.find(key);
    if (!v || !v->isU64())
        return false;
    out = v->asU64();
    return true;
}

bool
getUnsigned(const Json &obj, const char *key, unsigned &out)
{
    std::uint64_t wide = 0;
    if (!getU64(obj, key, wide) ||
        wide > std::numeric_limits<unsigned>::max())
        return false;
    out = static_cast<unsigned>(wide);
    return true;
}

bool
getInt(const Json &obj, const char *key, int &out)
{
    const Json *v = obj.find(key);
    if (!v || !v->isI64())
        return false;
    const std::int64_t wide = v->asI64();
    if (wide < std::numeric_limits<int>::min() ||
        wide > std::numeric_limits<int>::max())
        return false;
    out = static_cast<int>(wide);
    return true;
}

bool
getDouble(const Json &obj, const char *key, double &out)
{
    const Json *v = obj.find(key);
    if (!v || !v->isNumber())
        return false;
    out = v->asDouble();
    return true;
}

bool
getBool(const Json &obj, const char *key, bool &out)
{
    const Json *v = obj.find(key);
    if (!v || !v->isBool())
        return false;
    out = v->asBool();
    return true;
}

bool
getString(const Json &obj, const char *key, std::string &out)
{
    const Json *v = obj.find(key);
    if (!v || !v->isString())
        return false;
    out = v->asString();
    return true;
}

/** @p stats as an object with one member per entry of @p table. */
template <typename Stats, std::size_t N>
Json
countersToJson(const Stats &stats, const CounterField<Stats> (&table)[N])
{
    Json j = Json::object();
    for (const CounterField<Stats> &c : table)
        j[c.name] = Json(stats.*c.member);
    return j;
}

/** The inverse of countersToJson; false when any member is missing. */
template <typename Stats, std::size_t N>
bool
countersFromJson(const Json &json, Stats &stats,
                 const CounterField<Stats> (&table)[N])
{
    for (const CounterField<Stats> &c : table) {
        if (!getU64(json, c.name, stats.*c.member))
            return false;
    }
    return true;
}

} // namespace

Json
toJson(const core::RatConfig &rat)
{
    Json j = Json::object();
    j["variant"] = Json(runahead::raVariantName(rat.variant));
    j["cappedMaxCycles"] = Json(std::uint64_t{rat.cappedMaxCycles});
    j["uselessFilterThreshold"] =
        Json(std::uint64_t{rat.uselessFilterThreshold});
    j["uselessFilterReprobe"] =
        Json(std::uint64_t{rat.uselessFilterReprobe});
    j["dropFpInRunahead"] = Json(rat.dropFpInRunahead);
    j["useRunaheadCache"] = Json(rat.useRunaheadCache);
    j["runaheadCacheLines"] = Json(std::uint64_t{rat.runaheadCacheLines});
    j["disablePrefetch"] = Json(rat.disablePrefetch);
    j["noFetchInRunahead"] = Json(rat.noFetchInRunahead);
    return j;
}

bool
fromJson(const Json &json, core::RatConfig &rat)
{
    std::string variant;
    if (!getString(json, "variant", variant))
        return false;
    const auto parsed = runahead::parseRaVariant(variant);
    if (!parsed)
        return false;
    rat.variant = *parsed;
    return getUnsigned(json, "cappedMaxCycles", rat.cappedMaxCycles) &&
           getUnsigned(json, "uselessFilterThreshold",
                       rat.uselessFilterThreshold) &&
           getUnsigned(json, "uselessFilterReprobe",
                       rat.uselessFilterReprobe) &&
           getBool(json, "dropFpInRunahead", rat.dropFpInRunahead) &&
           getBool(json, "useRunaheadCache", rat.useRunaheadCache) &&
           getUnsigned(json, "runaheadCacheLines",
                       rat.runaheadCacheLines) &&
           getBool(json, "disablePrefetch", rat.disablePrefetch) &&
           getBool(json, "noFetchInRunahead", rat.noFetchInRunahead);
}

Json
toJson(const core::CoreConfig &core)
{
    Json j = Json::object();
    j["numThreads"] = Json(std::uint64_t{core.numThreads});
    j["fetchWidth"] = Json(std::uint64_t{core.fetchWidth});
    j["fetchThreads"] = Json(std::uint64_t{core.fetchThreads});
    j["renameWidth"] = Json(std::uint64_t{core.renameWidth});
    j["issueWidth"] = Json(std::uint64_t{core.issueWidth});
    j["commitWidth"] = Json(std::uint64_t{core.commitWidth});
    j["frontendDelay"] = Json(std::uint64_t{core.frontendDelay});
    j["robEntries"] = Json(std::uint64_t{core.robEntries});
    j["intIqEntries"] = Json(std::uint64_t{core.intIqEntries});
    j["fpIqEntries"] = Json(std::uint64_t{core.fpIqEntries});
    j["lsIqEntries"] = Json(std::uint64_t{core.lsIqEntries});
    j["lsqEntries"] = Json(std::uint64_t{core.lsqEntries});
    j["intRegs"] = Json(std::uint64_t{core.intRegs});
    j["fpRegs"] = Json(std::uint64_t{core.fpRegs});
    j["intUnits"] = Json(std::uint64_t{core.intUnits});
    j["fpUnits"] = Json(std::uint64_t{core.fpUnits});
    j["memUnits"] = Json(std::uint64_t{core.memUnits});
    j["fetchQueueEntries"] = Json(std::uint64_t{core.fetchQueueEntries});
    j["btbMissPenalty"] = Json(std::uint64_t{core.btbMissPenalty});
    j["mispredictRedirect"] = Json(std::uint64_t{core.mispredictRedirect});
    j["ifetchPrefetchLines"] =
        Json(std::uint64_t{core.ifetchPrefetchLines});
    j["policy"] = Json(policy::policyKindName(core.policy));
    j["rat"] = toJson(core.rat);
    Json predictor = Json::object();
    predictor["tableEntries"] =
        Json(std::uint64_t{core.predictor.tableEntries});
    predictor["historyBits"] =
        Json(std::uint64_t{core.predictor.historyBits});
    predictor["weightLimit"] =
        Json(std::int64_t{core.predictor.weightLimit});
    j["predictor"] = std::move(predictor);
    return j;
}

bool
fromJson(const Json &json, core::CoreConfig &core)
{
    std::string policy;
    if (!getString(json, "policy", policy))
        return false;
    const auto kind = policy::parsePolicyKind(policy);
    if (!kind)
        return false;
    core.policy = *kind;

    const Json *rat = json.find("rat");
    if (!rat || !fromJson(*rat, core.rat))
        return false;

    const Json *predictor = json.find("predictor");
    if (!predictor || !predictor->isObject())
        return false;
    if (!getUnsigned(*predictor, "tableEntries",
                     core.predictor.tableEntries) ||
        !getUnsigned(*predictor, "historyBits",
                     core.predictor.historyBits) ||
        !getInt(*predictor, "weightLimit", core.predictor.weightLimit))
        return false;

    return getUnsigned(json, "numThreads", core.numThreads) &&
           getUnsigned(json, "fetchWidth", core.fetchWidth) &&
           getUnsigned(json, "fetchThreads", core.fetchThreads) &&
           getUnsigned(json, "renameWidth", core.renameWidth) &&
           getUnsigned(json, "issueWidth", core.issueWidth) &&
           getUnsigned(json, "commitWidth", core.commitWidth) &&
           getUnsigned(json, "frontendDelay", core.frontendDelay) &&
           getUnsigned(json, "robEntries", core.robEntries) &&
           getUnsigned(json, "intIqEntries", core.intIqEntries) &&
           getUnsigned(json, "fpIqEntries", core.fpIqEntries) &&
           getUnsigned(json, "lsIqEntries", core.lsIqEntries) &&
           getUnsigned(json, "lsqEntries", core.lsqEntries) &&
           getUnsigned(json, "intRegs", core.intRegs) &&
           getUnsigned(json, "fpRegs", core.fpRegs) &&
           getUnsigned(json, "intUnits", core.intUnits) &&
           getUnsigned(json, "fpUnits", core.fpUnits) &&
           getUnsigned(json, "memUnits", core.memUnits) &&
           getUnsigned(json, "fetchQueueEntries",
                       core.fetchQueueEntries) &&
           getUnsigned(json, "btbMissPenalty", core.btbMissPenalty) &&
           getUnsigned(json, "mispredictRedirect",
                       core.mispredictRedirect) &&
           getUnsigned(json, "ifetchPrefetchLines",
                       core.ifetchPrefetchLines);
}

Json
toJson(const mem::CacheConfig &cache)
{
    Json j = Json::object();
    j["name"] = Json(cache.name);
    j["sizeBytes"] = Json(cache.sizeBytes);
    j["ways"] = Json(std::uint64_t{cache.ways});
    j["lineBytes"] = Json(std::uint64_t{cache.lineBytes});
    j["latency"] = Json(std::uint64_t{cache.latency});
    j["mshrs"] = Json(std::uint64_t{cache.mshrs});
    return j;
}

bool
fromJson(const Json &json, mem::CacheConfig &cache)
{
    return getString(json, "name", cache.name) &&
           getU64(json, "sizeBytes", cache.sizeBytes) &&
           getUnsigned(json, "ways", cache.ways) &&
           getUnsigned(json, "lineBytes", cache.lineBytes) &&
           getUnsigned(json, "latency", cache.latency) &&
           getUnsigned(json, "mshrs", cache.mshrs);
}

Json
toJson(const mem::MemConfig &mem)
{
    Json j = Json::object();
    j["l1i"] = toJson(mem.l1i);
    j["l1d"] = toJson(mem.l1d);
    j["l2"] = toJson(mem.l2);
    j["memLatency"] = Json(std::uint64_t{mem.memLatency});
    return j;
}

bool
fromJson(const Json &json, mem::MemConfig &mem)
{
    const Json *l1i = json.find("l1i");
    const Json *l1d = json.find("l1d");
    const Json *l2 = json.find("l2");
    return l1i && fromJson(*l1i, mem.l1i) && l1d &&
           fromJson(*l1d, mem.l1d) && l2 && fromJson(*l2, mem.l2) &&
           getUnsigned(json, "memLatency", mem.memLatency);
}

Json
toJson(const sim::SimConfig &config)
{
    Json j = Json::object();
    j["core"] = toJson(config.core);
    j["mem"] = toJson(config.mem);
    j["prewarmInsts"] = Json(config.prewarmInsts);
    j["warmupCycles"] = Json(config.warmupCycles);
    j["measureCycles"] = Json(config.measureCycles);
    j["seed"] = Json(config.seed);
    // Telemetry sampling changes SimResult content, so it is part of
    // the cache key — but only when enabled, keeping every existing
    // default-config key (and golden file) byte-identical.
    if (config.sampleWindow)
        j["sampleWindow"] = Json(std::uint64_t{config.sampleWindow});
    // Same deal for state digests: part of the key only when enabled.
    if (config.digestWindow)
        j["digestWindow"] = Json(std::uint64_t{config.digestWindow});
    // Sampled simulation changes what a result *means* (estimate vs
    // exact), so all its parameters are key material — but, like the
    // windows above, only when enabled. sampleIndex makes every
    // per-sample campaign cell a distinct cache entry.
    if (config.sampled) {
        Json s = Json::object();
        s["phases"] = Json(std::uint64_t{config.samplePhases});
        s["phaseWindow"] = Json(config.phaseWindow);
        s["spanWindows"] = Json(std::uint64_t{config.phaseSpanWindows});
        s["warmupCycles"] = Json(config.sampleWarmupCycles);
        s["measureCycles"] = Json(config.sampleMeasureCycles);
        if (config.sampleIndex >= 0)
            s["sampleIndex"] =
                Json(std::int64_t{config.sampleIndex});
        j["sampled"] = std::move(s);
    }
    return j;
}

bool
fromJson(const Json &json, sim::SimConfig &config)
{
    const Json *core = json.find("core");
    const Json *mem = json.find("mem");
    // sampleWindow/digestWindow are optional (absent = off) — see
    // toJson above.
    config.sampleWindow = 0;
    getU64(json, "sampleWindow", config.sampleWindow);
    config.digestWindow = 0;
    getU64(json, "digestWindow", config.digestWindow);
    // Sampled block optional (absent = exact mode) — see toJson above.
    config.sampled = false;
    config.sampleIndex = -1;
    if (const Json *s = json.find("sampled")) {
        if (!s->isObject() ||
            !getUnsigned(*s, "phases", config.samplePhases) ||
            !getU64(*s, "phaseWindow", config.phaseWindow) ||
            !getUnsigned(*s, "spanWindows", config.phaseSpanWindows) ||
            !getU64(*s, "warmupCycles", config.sampleWarmupCycles) ||
            !getU64(*s, "measureCycles", config.sampleMeasureCycles))
            return false;
        getInt(*s, "sampleIndex", config.sampleIndex);
        config.sampled = true;
    }
    return core && fromJson(*core, config.core) && mem &&
           fromJson(*mem, config.mem) &&
           getU64(json, "prewarmInsts", config.prewarmInsts) &&
           getU64(json, "warmupCycles", config.warmupCycles) &&
           getU64(json, "measureCycles", config.measureCycles) &&
           getU64(json, "seed", config.seed);
}

Json
toJson(const core::ThreadStats &stats)
{
    return countersToJson(stats, core::kThreadStatsCounters);
}

bool
fromJson(const Json &json, core::ThreadStats &stats)
{
    return countersFromJson(json, stats, core::kThreadStatsCounters);
}

Json
toJson(const mem::ThreadMemStats &stats)
{
    return countersToJson(stats, mem::kThreadMemStatsCounters);
}

bool
fromJson(const Json &json, mem::ThreadMemStats &stats)
{
    return countersFromJson(json, stats, mem::kThreadMemStatsCounters);
}

Json
toJson(const obs::Log2Histogram &hist)
{
    Json j = Json::object();
    j["total"] = Json(hist.total_);
    j["sum"] = Json(hist.sum_);
    // Trailing zero buckets are elided; the reader zero-fills.
    unsigned used = obs::Log2Histogram::kBuckets;
    while (used > 0 && hist.buckets_[used - 1] == 0)
        --used;
    Json buckets = Json::array();
    for (unsigned i = 0; i < used; ++i)
        buckets.push(Json(hist.buckets_[i]));
    j["buckets"] = std::move(buckets);
    return j;
}

bool
fromJson(const Json &json, obs::Log2Histogram &hist)
{
    hist = obs::Log2Histogram{};
    if (!getU64(json, "total", hist.total_) ||
        !getU64(json, "sum", hist.sum_))
        return false;
    const Json *buckets = json.find("buckets");
    if (!buckets || !buckets->isArray())
        return false;
    const auto &elems = buckets->elements();
    if (elems.size() > obs::Log2Histogram::kBuckets)
        return false;
    for (std::size_t i = 0; i < elems.size(); ++i) {
        if (!elems[i].isU64())
            return false;
        hist.buckets_[i] = elems[i].asU64();
    }
    return true;
}

Json
toJson(const obs::TelemetryResult &telemetry)
{
    Json j = Json::object();
    j["window"] = Json(std::uint64_t{telemetry.window});
    // Each sample is a fixed-shape 7-tuple
    // [cycle, committed, executed, raExecuted, rob, iq, lsq]; the array
    // form keeps long time-series compact in sweep caches.
    Json samples = Json::array();
    for (const obs::WindowSample &s : telemetry.samples) {
        Json row = Json::array();
        row.push(Json(std::uint64_t{s.cycle}))
            .push(Json(s.committed))
            .push(Json(s.executed))
            .push(Json(s.raExecuted))
            .push(Json(s.rob))
            .push(Json(s.iq))
            .push(Json(s.lsq));
        samples.push(std::move(row));
    }
    j["samples"] = std::move(samples);
    j["episodeCycles"] = toJson(telemetry.episodeCycles);
    j["missLatency"] = toJson(telemetry.missLatency);
    j["issueToRetire"] = toJson(telemetry.issueToRetire);
    return j;
}

bool
fromJson(const Json &json, obs::TelemetryResult &telemetry)
{
    telemetry = obs::TelemetryResult{};
    telemetry.enabled = true;
    std::uint64_t window = 0;
    if (!getU64(json, "window", window))
        return false;
    telemetry.window = window;
    const Json *samples = json.find("samples");
    if (!samples || !samples->isArray())
        return false;
    for (const Json &row : samples->elements()) {
        if (!row.isArray() || row.elements().size() != 7)
            return false;
        const auto &e = row.elements();
        for (const Json &v : e) {
            if (!v.isU64())
                return false;
        }
        obs::WindowSample s;
        s.cycle = e[0].asU64();
        s.committed = e[1].asU64();
        s.executed = e[2].asU64();
        s.raExecuted = e[3].asU64();
        s.rob = e[4].asU64();
        s.iq = e[5].asU64();
        s.lsq = e[6].asU64();
        telemetry.samples.push_back(s);
    }
    const Json *episode = json.find("episodeCycles");
    const Json *miss = json.find("missLatency");
    const Json *i2r = json.find("issueToRetire");
    return episode && fromJson(*episode, telemetry.episodeCycles) &&
           miss && fromJson(*miss, telemetry.missLatency) && i2r &&
           fromJson(*i2r, telemetry.issueToRetire);
}

Json
engineStatsJson(const runahead::EngineStats &stats)
{
    return countersToJson(stats, runahead::kEngineStatsCounters);
}

Json
toJson(const sim::ThreadResult &thread)
{
    Json j = Json::object();
    j["program"] = Json(thread.program);
    j["ipc"] = Json(thread.ipc);
    j["l2Mpki"] = Json(thread.l2Mpki);
    j["core"] = toJson(thread.core);
    j["mem"] = toJson(thread.mem);
    return j;
}

bool
fromJson(const Json &json, sim::ThreadResult &thread)
{
    const Json *core = json.find("core");
    const Json *mem = json.find("mem");
    return getString(json, "program", thread.program) &&
           getDouble(json, "ipc", thread.ipc) &&
           getDouble(json, "l2Mpki", thread.l2Mpki) && core &&
           fromJson(*core, thread.core) && mem &&
           fromJson(*mem, thread.mem);
}

Json
toJson(const sim::SimResult &result)
{
    Json j = Json::object();
    j["cycles"] = Json(result.cycles);
    Json threads = Json::array();
    for (const sim::ThreadResult &t : result.threads)
        threads.push(toJson(t));
    j["threads"] = std::move(threads);
    // Emitted only for telemetry-enabled runs: default-config results
    // (goldens, existing cache cells) serialize exactly as before.
    if (result.telemetry.enabled)
        j["telemetry"] = toJson(result.telemetry);
    // Digest streams likewise appear only for digest-enabled runs.
    // Each sample is a [cycle, digest] pair.
    if (result.digest.enabled()) {
        Json digest = Json::object();
        digest["window"] = Json(std::uint64_t{result.digest.window});
        Json samples = Json::array();
        for (const obs::DigestSample &s : result.digest.samples) {
            Json row = Json::array();
            row.push(Json(std::uint64_t{s.cycle})).push(Json(s.digest));
            samples.push(std::move(row));
        }
        digest["samples"] = std::move(samples);
        j["digest"] = std::move(digest);
    }
    // Sampling metadata appears only on sampled results — exact-mode
    // serializations (goldens, existing cache cells) are unchanged.
    // Needed for the cache round-trip of per-sample cells: the merge
    // step reads each cell's weight back out of its cached result.
    if (result.sampled.enabled) {
        Json s = Json::object();
        s["merged"] = Json(result.sampled.merged);
        if (result.sampled.merged) {
            s["phases"] = Json(std::uint64_t{result.sampled.phases});
            s["totalWindows"] = Json(result.sampled.totalWindows);
            s["ipcError"] = Json(result.sampled.ipcError);
            s["hmeanError"] = Json(result.sampled.hmeanError);
        } else {
            s["sampleIndex"] =
                Json(std::int64_t{result.sampled.sampleIndex});
            s["windowIndex"] =
                Json(std::uint64_t{result.sampled.windowIndex});
            s["weight"] = Json(result.sampled.weight);
        }
        j["sampled"] = std::move(s);
    }
    return j;
}

bool
fromJson(const Json &json, sim::SimResult &result)
{
    if (!getU64(json, "cycles", result.cycles))
        return false;
    const Json *threads = json.find("threads");
    if (!threads || !threads->isArray())
        return false;
    result.threads.clear();
    for (const Json &t : threads->elements()) {
        sim::ThreadResult thread;
        if (!t.isObject() || !fromJson(t, thread))
            return false;
        result.threads.push_back(std::move(thread));
    }
    result.telemetry = obs::TelemetryResult{};
    const Json *telemetry = json.find("telemetry");
    if (telemetry &&
        (!telemetry->isObject() ||
         !fromJson(*telemetry, result.telemetry)))
        return false;
    result.digest = obs::DigestTrack{};
    if (const Json *digest = json.find("digest")) {
        if (!digest->isObject() ||
            !getU64(*digest, "window", result.digest.window) ||
            result.digest.window == 0)
            return false;
        const Json *samples = digest->find("samples");
        if (!samples || !samples->isArray())
            return false;
        for (const Json &row : samples->elements()) {
            if (!row.isArray() || row.elements().size() != 2 ||
                !row.elements()[0].isU64() || !row.elements()[1].isU64())
                return false;
            obs::DigestSample s;
            s.cycle = row.elements()[0].asU64();
            s.digest = row.elements()[1].asU64();
            result.digest.samples.push_back(s);
        }
    }
    result.sampled = sim::SampledMeta{};
    if (const Json *s = json.find("sampled")) {
        if (!s->isObject() ||
            !getBool(*s, "merged", result.sampled.merged))
            return false;
        if (result.sampled.merged) {
            if (!getUnsigned(*s, "phases", result.sampled.phases) ||
                !getU64(*s, "totalWindows",
                        result.sampled.totalWindows) ||
                !getDouble(*s, "ipcError", result.sampled.ipcError) ||
                !getDouble(*s, "hmeanError", result.sampled.hmeanError))
                return false;
        } else {
            if (!getInt(*s, "sampleIndex",
                        result.sampled.sampleIndex) ||
                !getUnsigned(*s, "windowIndex",
                             result.sampled.windowIndex) ||
                !getU64(*s, "weight", result.sampled.weight))
                return false;
        }
        result.sampled.enabled = true;
    }
    return true;
}

Json
toJson(const sim::GroupMetrics &metrics)
{
    Json j = Json::object();
    j["technique"] = Json(metrics.technique);
    j["group"] = Json(sim::groupName(metrics.group));
    j["meanThroughput"] = Json(metrics.meanThroughput);
    j["meanFairness"] = Json(metrics.meanFairness);
    j["meanEd2"] = Json(metrics.meanEd2);
    Json results = Json::array();
    for (const sim::SimResult &r : metrics.results)
        results.push(toJson(r));
    j["results"] = std::move(results);
    return j;
}

bool
fromJson(const Json &json, sim::GroupMetrics &metrics)
{
    std::string group;
    if (!getString(json, "group", group))
        return false;
    const auto parsed = sim::parseGroup(group);
    if (!parsed)
        return false;
    metrics.group = *parsed;
    if (!getString(json, "technique", metrics.technique) ||
        !getDouble(json, "meanThroughput", metrics.meanThroughput) ||
        !getDouble(json, "meanFairness", metrics.meanFairness) ||
        !getDouble(json, "meanEd2", metrics.meanEd2))
        return false;
    const Json *results = json.find("results");
    if (!results || !results->isArray())
        return false;
    metrics.results.clear();
    for (const Json &r : results->elements()) {
        sim::SimResult result;
        if (!r.isObject() || !fromJson(r, result))
            return false;
        metrics.results.push_back(std::move(result));
    }
    return true;
}

Json
resultMetricsJson(const sim::SimResult &result)
{
    Json j = Json::object();
    j["throughputEq1"] = Json(result.throughputEq1());
    j["totalIpc"] = Json(result.totalIpc());
    j["committedTotal"] = Json(result.committedTotal());
    j["executedTotal"] = Json(result.executedTotal());
    j["ed2"] = Json(sim::ed2(result));
    return j;
}

CsvTable
threadResultsCsv(const sim::SimResult &result)
{
    CsvTable csv;
    csv.setHeader({"thread", "program", "ipc", "committedInsts",
                   "l2Mpki", "branches", "branchMispredicts",
                   "runaheadEntries", "runaheadCycles",
                   "pseudoRetired"});
    for (std::size_t i = 0; i < result.threads.size(); ++i) {
        const sim::ThreadResult &t = result.threads[i];
        CsvTable::Row row;
        row.add(std::uint64_t{i})
            .add(t.program)
            .add(t.ipc)
            .add(t.core.committedInsts)
            .add(t.l2Mpki)
            .add(t.core.branches)
            .add(t.core.branchMispredicts)
            .add(t.core.runaheadEntries)
            .add(t.core.runaheadCycles)
            .add(t.core.pseudoRetired);
        csv.addRow(row.take());
    }
    return csv;
}

CsvTable
groupMetricsCsv(const sim::GroupMetrics &metrics)
{
    CsvTable csv;
    csv.setHeader({"group", "technique", "workload", "throughput",
                   "totalIpc", "cycles"});
    const auto &workloads = sim::workloadsOf(metrics.group);
    for (std::size_t i = 0; i < metrics.results.size(); ++i) {
        const sim::SimResult &r = metrics.results[i];
        CsvTable::Row row;
        row.add(sim::groupName(metrics.group))
            .add(metrics.technique)
            .add(i < workloads.size() ? workloads[i].name
                                      : std::to_string(i))
            .add(sim::throughput(r))
            .add(r.totalIpc())
            .add(r.cycles);
        csv.addRow(row.take());
    }
    CsvTable::Row mean;
    mean.add(sim::groupName(metrics.group))
        .add(metrics.technique)
        .add("MEAN")
        .add(metrics.meanThroughput)
        .add("")
        .add("");
    csv.addRow(mean.take());
    return csv;
}

} // namespace rat::report
