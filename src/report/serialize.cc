#include "report/serialize.hh"

#include <array>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "policy/factory.hh"
#include "runahead/variant.hh"
#include "sim/metrics.hh"
#include "sim/workloads.hh"

namespace rat::report {

namespace {

// encode/decode: one member's JSON. A scalar is a JSON scalar, a type
// with a visit below is an object of its visited members, a vector is
// an array, and the hand-written leaves that follow keep their own
// shapes. decode returns false on any other shape, or on a number T
// cannot hold.
template <typename T>
Json encode(const T &value);
template <typename T>
bool decode(const Json &json, T &out);
template <typename T>
Json encode(const std::vector<T> &values);
template <typename T>
bool decode(const Json &json, std::vector<T> &values);

// Hand-written leaves: members whose JSON is not one member per field.

using Buckets = std::array<std::uint64_t, obs::Log2Histogram::kBuckets>;

/** Histogram buckets, trailing zeros elided; the reader zero-fills. */
Json
encode(const Buckets &buckets)
{
    std::size_t used = buckets.size();
    while (used > 0 && buckets[used - 1] == 0)
        --used;
    Json array = Json::array();
    for (std::size_t i = 0; i < used; ++i)
        array.push(Json(buckets[i]));
    return array;
}

bool
decode(const Json &json, Buckets &buckets)
{
    if (!json.isArray() || json.size() > buckets.size())
        return false;
    buckets.fill(0);
    for (std::size_t i = 0; i < json.size(); ++i) {
        if (!decode(json.at(i), buckets[i]))
            return false;
    }
    return true;
}

/**
 * A telemetry sample as a fixed-shape 7-tuple
 * [cycle, committed, executed, raExecuted, rob, iq, lsq]; the array
 * form keeps long time-series compact in sweep caches.
 */
Json
encode(const obs::WindowSample &s)
{
    Json row = Json::array();
    row.push(Json(s.cycle))
        .push(Json(s.committed))
        .push(Json(s.executed))
        .push(Json(s.raExecuted))
        .push(Json(s.rob))
        .push(Json(s.iq))
        .push(Json(s.lsq));
    return row;
}

bool
decode(const Json &row, obs::WindowSample &s)
{
    return row.isArray() && row.size() == 7 && decode(row.at(0), s.cycle) &&
           decode(row.at(1), s.committed) && decode(row.at(2), s.executed) &&
           decode(row.at(3), s.raExecuted) && decode(row.at(4), s.rob) &&
           decode(row.at(5), s.iq) && decode(row.at(6), s.lsq);
}

/** A state digest as a [cycle, digest] pair. */
Json
encode(const obs::DigestSample &s)
{
    Json row = Json::array();
    row.push(Json(s.cycle)).push(Json(s.digest));
    return row;
}

bool
decode(const Json &row, obs::DigestSample &s)
{
    return row.isArray() && row.size() == 2 && decode(row.at(0), s.cycle) &&
           decode(row.at(1), s.digest);
}

/**
 * Encode-side IO: builds the visited value's JSON object, one member
 * per visited field, in visit order. That order is the byte order of
 * every cache key, so a visit never reorders its fields.
 */
struct JsonWriter {
    static constexpr bool kWrites = true;
    Json out = Json::object();

    template <typename T>
    void
    field(const char *key, const T &value)
    {
        out[key] = encode(value);
    }

    /** An enumerator, as the name @p name spells it. */
    template <typename E>
    void
    named(const char *key, const E &value, const char *(*name)(E),
          std::optional<E> (*)(const std::string &))
    {
        out[key] = Json(name(value));
    }

    /** A field written only when it differs from its off value. */
    template <typename T>
    void
    optional(const char *key, const T &value, const T &off)
    {
        if (value != off)
            field(key, value);
    }

    /**
     * A nested object of the members @p fields visits, written only
     * when @p on differs from its off (value-initialized) state.
     */
    template <typename Flag, typename Fields>
    void
    block(const char *key, const Flag &on, Fields fields)
    {
        if (on == Flag{})
            return;
        JsonWriter sub;
        fields(sub);
        out[key] = std::move(sub.out);
    }
};

/**
 * Decode-side IO: the mirror of JsonWriter. A member that is missing
 * or ill-typed clears `ok`, and the caller checks once at the end.
 */
struct JsonReader {
    static constexpr bool kWrites = false;
    const Json &in;
    bool ok = true;

    template <typename T>
    void
    field(const char *key, T &value)
    {
        const Json *member = in.find(key);
        ok = ok && member && decode(*member, value);
    }

    template <typename E>
    void
    named(const char *key, E &value, const char *(*)(E),
          std::optional<E> (*parse)(const std::string &))
    {
        std::string name;
        field(key, name);
        const std::optional<E> parsed = parse(name);
        ok = ok && parsed;
        if (parsed)
            value = *parsed;
    }

    /** Absent reads as @p off; present must decode. */
    template <typename T>
    void
    optional(const char *key, T &value, const T &off)
    {
        const Json *member = in.find(key);
        if (!member)
            value = off;
        else
            ok = ok && decode(*member, value);
    }

    /**
     * Absent turns @p on off. Present must be an object of the members
     * @p fields visits, and leaves @p on set: a bool flag is set here,
     * any other flag must be one of those members and read non-zero.
     */
    template <typename Flag, typename Fields>
    void
    block(const char *key, Flag &on, Fields fields)
    {
        const Json *member = in.find(key);
        if (!member) {
            on = Flag{};
            return;
        }
        if constexpr (std::is_same_v<Flag, bool>)
            on = true;
        JsonReader sub{*member};
        fields(sub);
        ok = ok && member->isObject() && sub.ok && on != Flag{};
    }
};

template <typename T>
Json
encode(const T &value)
{
    if constexpr (std::is_constructible_v<Json, const T &>) {
        return Json(value);
    } else {
        JsonWriter writer;
        visit(writer, value);
        return std::move(writer.out);
    }
}

template <typename T>
bool
decode(const Json &json, T &out)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (!json.isBool())
            return false;
        out = json.asBool();
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!json.isString())
            return false;
        out = json.asString();
    } else if constexpr (std::is_floating_point_v<T>) {
        if (!json.isNumber())
            return false;
        out = json.asDouble();
    } else if constexpr (std::is_unsigned_v<T>) {
        if (!json.isU64() || json.asU64() > std::numeric_limits<T>::max())
            return false;
        out = static_cast<T>(json.asU64());
    } else if constexpr (std::is_signed_v<T>) {
        if (!json.isI64() || json.asI64() < std::numeric_limits<T>::min() ||
            json.asI64() > std::numeric_limits<T>::max())
            return false;
        out = static_cast<T>(json.asI64());
    } else {
        if (!json.isObject())
            return false;
        JsonReader reader{json};
        visit(reader, out);
        return reader.ok;
    }
    return true;
}

template <typename T>
Json
encode(const std::vector<T> &values)
{
    Json array = Json::array();
    for (const T &value : values)
        array.push(encode(value));
    return array;
}

template <typename T>
bool
decode(const Json &json, std::vector<T> &values)
{
    if (!json.isArray())
        return false;
    values.clear();
    for (const Json &element : json.elements()) {
        T value;
        if (!decode(element, value))
            return false;
        values.push_back(std::move(value));
    }
    return true;
}

/** @p T as a visit sees it: const when writing, assignable when reading. */
template <typename IO, typename T>
using Visited = std::conditional_t<IO::kWrites, const T, T>;

// One visit per serialized type: its members, named once, in output
// order, walked by both IOs.

template <typename IO, typename Stats, std::size_t N>
void
visitCounters(IO &io, Visited<IO, Stats> &stats,
              const CounterField<Stats> (&table)[N])
{
    for (const CounterField<Stats> &c : table)
        io.field(c.name, stats.*c.member);
}

template <typename IO>
void
visit(IO &io, Visited<IO, core::ThreadStats> &stats)
{
    visitCounters(io, stats, core::kThreadStatsCounters);
}

template <typename IO>
void
visit(IO &io, Visited<IO, mem::ThreadMemStats> &stats)
{
    visitCounters(io, stats, mem::kThreadMemStatsCounters);
}

template <typename IO>
void
visit(IO &io, Visited<IO, runahead::EngineStats> &stats)
{
    visitCounters(io, stats, runahead::kEngineStatsCounters);
}

template <typename IO>
void
visit(IO &io, Visited<IO, core::RatConfig> &rat)
{
    io.named("variant", rat.variant, runahead::raVariantName,
             runahead::parseRaVariant);
    io.field("cappedMaxCycles", rat.cappedMaxCycles);
    io.field("uselessFilterThreshold", rat.uselessFilterThreshold);
    io.field("uselessFilterReprobe", rat.uselessFilterReprobe);
    io.field("dropFpInRunahead", rat.dropFpInRunahead);
    io.field("useRunaheadCache", rat.useRunaheadCache);
    io.field("runaheadCacheLines", rat.runaheadCacheLines);
    io.field("disablePrefetch", rat.disablePrefetch);
    io.field("noFetchInRunahead", rat.noFetchInRunahead);
}

template <typename IO>
void
visit(IO &io, Visited<IO, branch::PerceptronConfig> &predictor)
{
    io.field("tableEntries", predictor.tableEntries);
    io.field("historyBits", predictor.historyBits);
    io.field("weightLimit", predictor.weightLimit);
}

/**
 * cycleSkipping, checkLevel and checkInterval are host-only: they
 * cannot change a result, so they stay out of the key.
 */
template <typename IO>
void
visit(IO &io, Visited<IO, core::CoreConfig> &core)
{
    io.field("numThreads", core.numThreads);
    io.field("fetchWidth", core.fetchWidth);
    io.field("fetchThreads", core.fetchThreads);
    io.field("renameWidth", core.renameWidth);
    io.field("issueWidth", core.issueWidth);
    io.field("commitWidth", core.commitWidth);
    io.field("frontendDelay", core.frontendDelay);
    io.field("robEntries", core.robEntries);
    io.field("intIqEntries", core.intIqEntries);
    io.field("fpIqEntries", core.fpIqEntries);
    io.field("lsIqEntries", core.lsIqEntries);
    io.field("lsqEntries", core.lsqEntries);
    io.field("intRegs", core.intRegs);
    io.field("fpRegs", core.fpRegs);
    io.field("intUnits", core.intUnits);
    io.field("fpUnits", core.fpUnits);
    io.field("memUnits", core.memUnits);
    io.field("fetchQueueEntries", core.fetchQueueEntries);
    io.field("btbMissPenalty", core.btbMissPenalty);
    io.field("mispredictRedirect", core.mispredictRedirect);
    io.field("ifetchPrefetchLines", core.ifetchPrefetchLines);
    io.named("policy", core.policy, policy::policyKindName,
             policy::parsePolicyKind);
    io.field("rat", core.rat);
    io.field("predictor", core.predictor);
}

template <typename IO>
void
visit(IO &io, Visited<IO, mem::CacheConfig> &cache)
{
    io.field("name", cache.name);
    io.field("sizeBytes", cache.sizeBytes);
    io.field("ways", cache.ways);
    io.field("lineBytes", cache.lineBytes);
    io.field("latency", cache.latency);
    io.field("mshrs", cache.mshrs);
}

template <typename IO>
void
visit(IO &io, Visited<IO, mem::MemConfig> &mem)
{
    io.field("l1i", mem.l1i);
    io.field("l1d", mem.l1d);
    io.field("l2", mem.l2);
    io.field("memLatency", mem.memLatency);
}

/**
 * The tracer and verify-hook members are host-only and stay out of the
 * key. The optional parts change what a result holds or means, so they
 * are key material, but only when on: a config that leaves them off
 * keeps the key (and goldens) it had before they existed.
 */
template <typename IO>
void
visit(IO &io, Visited<IO, sim::SimConfig> &config)
{
    io.field("core", config.core);
    io.field("mem", config.mem);
    io.field("prewarmInsts", config.prewarmInsts);
    io.field("warmupCycles", config.warmupCycles);
    io.field("measureCycles", config.measureCycles);
    io.field("seed", config.seed);
    io.optional("sampleWindow", config.sampleWindow, Cycle{0});
    io.optional("digestWindow", config.digestWindow, Cycle{0});
    // sampleIndex makes every per-sample campaign cell a distinct
    // cache entry.
    io.block("sampled", config.sampled, [&](auto &sampled) {
        sampled.field("phases", config.samplePhases);
        sampled.field("phaseWindow", config.phaseWindow);
        sampled.field("spanWindows", config.phaseSpanWindows);
        sampled.field("warmupCycles", config.sampleWarmupCycles);
        sampled.field("measureCycles", config.sampleMeasureCycles);
        sampled.optional("sampleIndex", config.sampleIndex, -1);
    });
}

template <typename IO>
void
visit(IO &io, Visited<IO, obs::Log2Histogram> &hist)
{
    io.field("total", hist.total_);
    io.field("sum", hist.sum_);
    io.field("buckets", hist.buckets_);
}

template <typename IO>
void
visit(IO &io, Visited<IO, obs::TelemetryResult> &telemetry)
{
    io.field("window", telemetry.window);
    io.field("samples", telemetry.samples);
    io.field("episodeCycles", telemetry.episodeCycles);
    io.field("missLatency", telemetry.missLatency);
    io.field("issueToRetire", telemetry.issueToRetire);
}

template <typename IO>
void
visit(IO &io, Visited<IO, sim::ThreadResult> &thread)
{
    io.field("program", thread.program);
    io.field("ipc", thread.ipc);
    io.field("l2Mpki", thread.l2Mpki);
    io.field("core", thread.core);
    io.field("mem", thread.mem);
}

/**
 * `engine` and `stateDump` stay out (see their declarations). The
 * optional blocks appear only on runs that produce them, so exact,
 * default-config results (goldens, cache cells) keep their bytes.
 */
template <typename IO>
void
visit(IO &io, Visited<IO, sim::SimResult> &result)
{
    io.field("cycles", result.cycles);
    io.field("threads", result.threads);
    io.block("telemetry", result.telemetry.enabled,
             [&](auto &block) { visit(block, result.telemetry); });
    io.block("digest", result.digest.window, [&](auto &block) {
        block.field("window", result.digest.window);
        block.field("samples", result.digest.samples);
    });
    // The merge step reads each per-sample cell's weight back out of
    // its cached result.
    io.block("sampled", result.sampled.enabled, [&](auto &block) {
        auto &meta = result.sampled;
        block.field("merged", meta.merged);
        if (meta.merged) {
            block.field("phases", meta.phases);
            block.field("totalWindows", meta.totalWindows);
            block.field("ipcError", meta.ipcError);
            block.field("hmeanError", meta.hmeanError);
        } else {
            block.field("sampleIndex", meta.sampleIndex);
            block.field("windowIndex", meta.windowIndex);
            block.field("weight", meta.weight);
        }
    });
}

template <typename IO>
void
visit(IO &io, Visited<IO, sim::GroupMetrics> &metrics)
{
    io.field("technique", metrics.technique);
    io.named("group", metrics.group, sim::groupName, sim::parseGroup);
    io.field("meanThroughput", metrics.meanThroughput);
    io.field("meanFairness", metrics.meanFairness);
    io.field("meanEd2", metrics.meanEd2);
    io.field("results", metrics.results);
}

} // namespace

Json
toJson(const sim::SimConfig &config)
{
    return encode(config);
}

bool
fromJson(const Json &json, sim::SimConfig &config)
{
    return decode(json, config);
}

Json
toJson(const sim::SimResult &result)
{
    return encode(result);
}

bool
fromJson(const Json &json, sim::SimResult &result)
{
    return decode(json, result);
}

Json
toJson(const sim::GroupMetrics &metrics)
{
    return encode(metrics);
}

bool
fromJson(const Json &json, sim::GroupMetrics &metrics)
{
    return decode(json, metrics);
}

Json
toJson(const obs::Log2Histogram &hist)
{
    return encode(hist);
}

bool
fromJson(const Json &json, obs::Log2Histogram &hist)
{
    return decode(json, hist);
}

Json
engineStatsJson(const runahead::EngineStats &stats)
{
    return encode(stats);
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
