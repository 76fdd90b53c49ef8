/**
 * @file
 * JSON/CSV serializers for the simulator's configuration and result
 * types. `toJson` emits every field that affects or describes a run;
 * the matching `fromJson` reads it back exactly (numeric fields
 * round-trip bit-for-bit, see report/json.hh), returning false on
 * missing or ill-typed members instead of guessing. An optional member
 * or block the document leaves out reads as off.
 *
 * Each serialized type names its members once, in one `visit` in
 * serialize.cc that both directions walk; a member the visit leaves
 * out is host-only and reaches neither the JSON nor the reader. The
 * on-disk result cache (report/result_cache.hh) builds its content
 * hash from the canonical compact dump of `toJson(SimConfig)`, so the
 * visits *are* the cache-key definition: a semantically relevant
 * config field added to its type's visit invalidates stale cells.
 */

#ifndef RAT_REPORT_SERIALIZE_HH
#define RAT_REPORT_SERIALIZE_HH

#include "report/csv.hh"
#include "report/json.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

namespace rat::report {

Json toJson(const sim::SimConfig &config);
Json toJson(const sim::SimResult &result);
Json toJson(const sim::GroupMetrics &metrics);
Json toJson(const obs::Log2Histogram &hist);

bool fromJson(const Json &json, sim::SimConfig &config);
bool fromJson(const Json &json, sim::SimResult &result);
bool fromJson(const Json &json, sim::GroupMetrics &metrics);
bool fromJson(const Json &json, obs::Log2Histogram &hist);

/**
 * Runahead-engine statistics as a JSON block. One-way: `SimResult` does
 * not serialize these (goldens and cache cells stay unchanged), but
 * always-fresh paths — `ratsim report` structured output — surface them
 * through this helper.
 */
Json engineStatsJson(const runahead::EngineStats &stats);

/** Derived headline metrics (Eq. 1/Eq. 2-less summary) of one run. */
Json resultMetricsJson(const sim::SimResult &result);

/** Per-thread result rows of one run as a CSV table. */
CsvTable threadResultsCsv(const sim::SimResult &result);

/** Per-workload rows + group means of one GroupMetrics as CSV. */
CsvTable groupMetricsCsv(const sim::GroupMetrics &metrics);

} // namespace rat::report

#endif // RAT_REPORT_SERIALIZE_HH
