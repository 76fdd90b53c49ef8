/**
 * @file
 * Shared declarations of the ratbench benchmark program.
 *
 * The program runs one workload as a closed loop from one process (the
 * next cell starts when the previous one finished) and reports the
 * end-to-end metrics a `ratsim` user waits for. A traced run adds spans
 * around every call the benchmark makes into a simulator layer and
 * derives the per-layer metrics from them.
 */

#ifndef RATBENCH_BENCH_HH
#define RATBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "report/json.hh"
#include "sim/campaign.hh"
#include "sim/simulator.hh"

namespace ratbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- spans -----------------------------------------------------------

/** One timed interval around a call into a simulator layer. */
struct Span {
    std::string name;  ///< e.g. "core.prewarm"
    std::string layer; ///< module: trace, branch, core, mem, policy,
                       ///< runahead, report, sim, obs, check, bench
    std::string cell;  ///< cell label ("" outside cells)
    int id = 0;
    int parent = -1;   ///< id of the enclosing span, -1 at top level
    double start = 0.0; ///< seconds since the log's origin
    double dur = 0.0;
    int track = 0; ///< Perfetto row: recording thread
};

/**
 * In-memory span log, written out once at the end of a traced run.
 * Disabled logs record nothing and never read the clock, so the
 * untraced loop pays nothing for the instrumentation sites.
 * Thread-safe: the traced sweep records from two worker threads.
 */
class SpanLog
{
  public:
    SpanLog(bool enabled, std::string workload);

    bool enabled() const { return enabled_; }
    /** Seconds since the log's origin. */
    double now() const { return secondsSince(origin_); }

    /** Open a span starting now; returns its id (-1 when disabled). */
    int open(const std::string &name, const std::string &layer,
             const std::string &cell, int parent);
    /** Close span @p id now. */
    void close(int id);
    /** Record an already-measured interval. Returns its id. */
    int add(const std::string &name, const std::string &layer,
            const std::string &cell, int parent, double start,
            double dur);

    /** Copy of every recorded span. */
    std::vector<Span> spans() const;

    /** Durations of every span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Self time (duration minus the time covered by direct children)
     * summed per layer (or per span name when @p byName), over the
     * spans nested under @p root (all spans when root is -1).
     */
    std::map<std::string, double> selfTime(int root, bool byName) const;

    /** Chrome trace-event JSON (the `traceEvents` form obs writes). */
    std::string chromeJson() const;

  private:
    bool enabled_;
    std::string workload_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name,
               const std::string &layer, const std::string &cell,
               int parent)
        : log_(log), id_(log.open(name, layer, cell, parent))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

// ---- statistics ------------------------------------------------------

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * The highest whole percentile that leaves at least ten samples beyond
 * it (nearest-rank). With ten or fewer samples no percentile qualifies,
 * and the maximum is reported with percentile 100.
 */
struct Tail {
    double value = 0.0;
    double percentile = 100.0;
    std::size_t beyond = 0;
};
Tail tailOf(std::vector<double> v);

// ---- cells -----------------------------------------------------------

/** One simulated cell: a workload mix under one policy. */
struct CellSpec {
    std::string label; ///< "art,mcf/RaT"
    std::string policy;
    std::vector<std::string> programs;
    rat::sim::SimConfig cfg;
};

/** What one finished cell produced, as the benchmark measures it. */
struct CellRun {
    const CellSpec *spec = nullptr;
    double wall = 0.0;      ///< seconds the user waits for this cell
    /**
     * Committed instructions the cell actually simulated in measured
     * windows. Exact cells: result.committedTotal(). Sampled cells: the
     * samples' own commits, not the merged extrapolation to the full
     * window.
     */
    double simulatedInsts = 0.0;
    rat::sim::PhaseTiming timing; ///< zero for sampled cells
    bool hasTiming = false;
    rat::sim::SimResult result;
    std::string serialized; ///< toJson(result).dump()
    bool ok = true;
    std::string error;
};

/** Canonical serialization the output check hashes and compares. */
std::string serializeResult(const rat::sim::SimResult &result);

// ---- output ----------------------------------------------------------

/** One reported metric with its provenance. */
struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string note; ///< where it came from ("" = the measured loop)
};

/** Everything one benchmark invocation reports. */
struct Report {
    std::string workload;
    std::uint64_t seed = 0;
    bool traced = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<std::pair<std::string, Metric>> metrics;
    /** Self times of the traced loop by layer and by span name. */
    std::map<std::string, double> layerSelf;
    std::map<std::string, double> spanSelf;
    double tracedWall = 0.0;
    /** Threads the traced loop ran on: its capacity is wall x threads. */
    unsigned tracedThreads = 1;
    /** Free-form lines printed before the metrics table. */
    std::vector<std::string> notes;
    /** Per-cell wall samples of the measured loop (label, seconds). */
    std::vector<std::pair<std::string, double>> cellWalls;

    void set(const std::string &name, double value,
             const std::string &unit, std::size_t samples,
             const std::string &note = "");
};

/** Invocation-wide knobs shared by the workloads. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    bool trace = false;
    std::string tmpDir;      ///< scratch space inside the checkout
    std::string digestFile;  ///< default-seed digest table ("" = none)
    bool recordDigests = false;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The seed the digest table was recorded for. */
constexpr std::uint64_t kDigestSeed = 1;

/** Run one workload; fills @p report. Returns false on a usage error. */
bool runWorkload(const Options &opt, SpanLog &spans, Report &report);

/** Per-layer probes and derived metrics of a traced run. */
struct LayerInputs {
    const std::vector<CellSpec> *cells = nullptr;
    const std::vector<CellRun> *runs = nullptr; ///< traced-loop cells
    double untracedCellMedian = 0.0;
    double tracedCellMedian = 0.0;
    /** Simulator constructor seconds from the workload's set-up phase. */
    const std::vector<double> *constructs = nullptr;
    int probeParent = -1;
};
void runLayerProbes(const Options &opt, SpanLog &spans,
                    const LayerInputs &in, Report &report);

// ---- helpers shared by the workloads and probes -----------------------

/** A fresh, empty directory under opt.tmpDir. */
std::string freshDir(const Options &opt, const std::string &tag);

/** Run one exact cell in-process (construct + run + teardown). */
CellRun runExactCell(const CellSpec &spec, SpanLog &spans, int parent);

/**
 * Run one sampled cell in a forked child process, so process-wide memos
 * (the sampled plan and checkpoint registries) start cold exactly as
 * they do for a `ratsim run`. Spans the child records are merged into
 * @p spans.
 */
CellRun runForkedCell(const CellSpec &spec, SpanLog &spans, int parent);

/** The sampled cells' full-window exact counterpart configuration. */
rat::sim::SimConfig exactOf(const rat::sim::SimConfig &cfg);

/** The workload's cells (sweep-mix2: the campaign's techniques). */
std::vector<CellSpec> cellsFor(const std::string &workload,
                               std::uint64_t seed);

/** The sweep-mix2 campaign spec (cacheDir and parallelism unset). */
rat::sim::CampaignSpec sweepSpec(std::uint64_t seed);

} // namespace ratbench

#endif // RATBENCH_BENCH_HH
