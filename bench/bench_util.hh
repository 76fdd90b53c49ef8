/**
 * @file
 * Shared plumbing for the figure/table reproduction benches: default
 * configuration with environment-variable scaling, each bench's grid
 * as one campaign (sim/campaign.hh), so cells that share a prewarm
 * walk it once, tabular output helpers that print the same
 * rows/series the paper reports, and a
 * BenchReport collector that mirrors those tables into a structured
 * `BENCH_<name>.json` artifact through the report layer.
 *
 * Environment knobs:
 *   RATSIM_WARMUP      warm-up cycles per run         (default 15000)
 *   RATSIM_MEASURE     measured cycles per run        (default 60000)
 *   RATSIM_PREWARM     functional warm-up insts/thread (default 1M)
 *   RATSIM_JOBS        CampaignSpec::parallelism      (default: usable CPUs)
 *   RATSIM_REPORT_DIR  where BENCH_*.json artifacts go (default ".")
 */

#ifndef RAT_BENCH_BENCH_UTIL_HH
#define RAT_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/parse.hh"
#include "report/json.hh"
#include "sim/campaign.hh"
#include "sim/metrics.hh"
#include "sim/workloads.hh"

namespace rat::bench {

/** Read an unsigned environment knob with a default; garbage values
 * are a fatal configuration error, not a silent zero. */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return parseU64(v, name);
}

/** Bench-default simulation config (Table 1 core, scaled windows). */
inline sim::SimConfig
benchConfig()
{
    sim::SimConfig cfg;
    cfg.warmupCycles = envU64("RATSIM_WARMUP", 15000);
    cfg.measureCycles = envU64("RATSIM_MEASURE", 60000);
    cfg.prewarmInsts = envU64("RATSIM_PREWARM", cfg.prewarmInsts);
    return cfg;
}

/**
 * @p lineup over every Table 2 group on @p base, as one campaign whose
 * parallelism RATSIM_JOBS sets.
 */
inline sim::CampaignSpec
benchSpec(std::vector<sim::TechniqueSpec> lineup,
          sim::SimConfig base = benchConfig())
{
    sim::CampaignSpec spec;
    spec.base = std::move(base);
    spec.techniques = std::move(lineup);
    spec.groups = sim::allGroups();
    spec.parallelism = static_cast<unsigned>(envU64("RATSIM_JOBS", 0));
    return spec;
}

/**
 * Run a benchSpec and fold it into group metrics: grid[t][g] is
 * technique t on group g. Only @p with_fairness runs the single-thread
 * baselines that Eq. 2 needs.
 */
inline std::vector<std::vector<sim::GroupMetrics>>
runGrid(const sim::CampaignSpec &spec, bool with_fairness = false)
{
    sim::CampaignOutcome baselines;
    if (with_fairness)
        baselines = sim::runCampaign(sim::baselineSpec(spec));
    return sim::groupMetrics(spec, sim::runCampaign(spec),
                             with_fairness ? &baselines : nullptr);
}

/** Print the standard bench banner. */
inline void
banner(const char *experiment, const char *paper_claim)
{
    std::printf("==============================================================="
                "=========\n");
    std::printf("%s\n", experiment);
    std::printf("paper: Runahead Threads to Improve SMT Performance (HPCA"
                " 2008)\n");
    std::printf("expected shape: %s\n", paper_claim);
    std::printf("==============================================================="
                "=========\n");
}

/** One metric table: groups as rows, techniques as columns. */
inline void
printGroupTable(const char *title,
                const std::vector<std::string> &technique_labels,
                const std::map<std::string,
                               std::vector<double>> &rows_by_group,
                const std::vector<std::string> &group_order)
{
    std::printf("\n%s\n", title);
    std::printf("%-8s", "group");
    for (const auto &label : technique_labels)
        std::printf(" %12s", label.c_str());
    std::printf("\n");
    for (const auto &group : group_order) {
        std::printf("%-8s", group.c_str());
        for (const double v : rows_by_group.at(group))
            std::printf(" %12.3f", v);
        std::printf("\n");
    }
    // Column means ("Avg" bar of the paper's figures).
    std::printf("%-8s", "AVG");
    const std::size_t cols = technique_labels.size();
    for (std::size_t c = 0; c < cols; ++c) {
        double sum = 0.0;
        for (const auto &group : group_order)
            sum += rows_by_group.at(group)[c];
        std::printf(" %12.3f",
                    sum / static_cast<double>(group_order.size()));
    }
    std::printf("\n");
}

/** Relative improvement in percent. */
inline double
pct(double v, double base)
{
    return base > 0.0 ? 100.0 * (v / base - 1.0) : 0.0;
}

/**
 * Structured mirror of a bench's printed tables. Collect tables and
 * headline scalars while the bench runs, then write() emits
 * `BENCH_<name>.json` into RATSIM_REPORT_DIR through the report layer.
 */
class BenchReport
{
  public:
    explicit BenchReport(const char *bench_name)
        : name_(bench_name)
    {
        doc_["schema"] = report::Json("ratsim-bench-v1");
        doc_["bench"] = report::Json(name_);
        doc_["paper"] =
            report::Json("Runahead Threads to improve SMT performance "
                         "(HPCA 2008)");
        doc_["tables"] = report::Json::array();
        doc_["headlines"] = report::Json::array();
    }

    /** Record the same table printGroupTable prints. */
    void
    addGroupTable(const char *title,
                  const std::vector<std::string> &technique_labels,
                  const std::map<std::string,
                                 std::vector<double>> &rows_by_group,
                  const std::vector<std::string> &group_order)
    {
        report::Json table = report::Json::object();
        table["title"] = report::Json(title);
        report::Json cols = report::Json::array();
        for (const auto &label : technique_labels)
            cols.push(report::Json(label));
        table["columns"] = std::move(cols);
        report::Json rows = report::Json::array();
        for (const auto &group : group_order) {
            report::Json row = report::Json::object();
            row["group"] = report::Json(group);
            report::Json values = report::Json::array();
            for (const double v : rows_by_group.at(group))
                values.push(report::Json(v));
            row["values"] = std::move(values);
            rows.push(std::move(row));
        }
        table["rows"] = std::move(rows);
        doc_["tables"].push(std::move(table));
    }

    /** Record one headline comparison ("RaT vs DCRA, MEM2", +75.0). */
    void
    addHeadline(const std::string &label, double value)
    {
        report::Json h = report::Json::object();
        h["label"] = report::Json(label);
        h["value"] = report::Json(value);
        doc_["headlines"].push(std::move(h));
    }

    /** Write BENCH_<name>.json; returns the path written. */
    std::string
    write() const
    {
        const char *dir = std::getenv("RATSIM_REPORT_DIR");
        std::string path = (dir && *dir) ? dir : ".";
        path += "/BENCH_" + name_ + ".json";
        std::ofstream out(path);
        if (!out)
            fatal("cannot write bench report '%s'", path.c_str());
        out << doc_.dump(2);
        std::printf("\nwrote %s\n", path.c_str());
        return path;
    }

  private:
    std::string name_;
    report::Json doc_ = report::Json::object();
};

} // namespace rat::bench

#endif // RAT_BENCH_BENCH_UTIL_HH
