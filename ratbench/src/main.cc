/**
 * @file
 * ratbench entry point.
 *
 *   ratbench --workload W --seed N --seconds S --trace 0|1
 *            [--out FILE] [--spans FILE] [--tmp DIR] [--digests FILE]
 *            [--commit SHA] [--record-digests]
 *   ratbench --farm-worker [--cache DIR] [--worker-id N]
 *
 * Prints a human-readable report (every metric with its unit, sample
 * count and provenance) and writes the full result, with host context,
 * as JSON to --out. `ratbench/run.py` builds this binary and turns the
 * result file into the benchmark's one-line summary.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/farm.hh"

namespace {

using namespace ratbench;
using rat::report::Json;

[[noreturn]] void
usageError(const std::string &why)
{
    std::fprintf(stderr,
                 "ratbench: %s\nusage: ratbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--out FILE] [--spans FILE] "
                 "[--tmp DIR] [--digests FILE] [--commit SHA] "
                 "[--record-digests]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-')
        usageError(std::string(flag) + " needs a whole number, got '" +
                   text + "'");
    return v;
}

Json
loadAverage()
{
    double avg[3] = {0.0, 0.0, 0.0};
    Json j = Json::array();
    if (getloadavg(avg, 3) == 3)
        for (double a : avg)
            j.push(a);
    return j;
}

void
printReport(const Report &r, const Json &host)
{
    std::printf("ratbench %s  seed %llu  %s\n", r.workload.c_str(),
                static_cast<unsigned long long>(r.seed),
                r.traced ? "traced" : "untraced");
    std::printf("host: %s\n", host.dump().c_str());
    for (const std::string &n : r.notes)
        std::printf("%s\n", n.c_str());
    std::printf("\n%-30s %16s %-9s %7s  %s\n", "metric", "value", "unit",
                "samples", "note");
    for (const auto &[name, m] : r.metrics)
        std::printf("%-30s %16.6g %-9s %7zu  %s\n", name.c_str(), m.value,
                    m.unit.c_str(), m.samples, m.note.c_str());
    std::printf("\ncells attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (const std::string &f : r.failures)
        std::printf("FAILED: %s\n", f.c_str());

    if (r.traced) {
        double attributed = 0.0;
        const double capacity = r.tracedWall * r.tracedThreads;
        std::printf("\nself time over the traced loop (wall %.3f s x %u "
                    "thread%s)\n",
                    r.tracedWall, r.tracedThreads,
                    r.tracedThreads > 1 ? "s" : "");
        for (const char *layer :
             {"trace", "branch", "core", "mem", "policy", "runahead",
              "report", "sim", "obs", "check", "bench"}) {
            const auto it = r.layerSelf.find(layer);
            const double s = it == r.layerSelf.end() ? 0.0 : it->second;
            attributed += s;
            std::printf("  %-14s %10.4f s %6.1f%%\n", layer, s,
                        capacity > 0 ? 100.0 * s / capacity : 0.0);
        }
        const double rest = capacity - attributed;
        std::printf("  %-14s %10.4f s %6.1f%%\n", "unattributed", rest,
                    capacity > 0 ? 100.0 * rest / capacity : 0.0);
        std::printf("  by span:\n");
        for (const auto &[name, s] : r.spanSelf)
            if (capacity > 0 && s / capacity >= 0.001)
                std::printf("  %-22s %10.4f s %6.1f%%\n", name.c_str(), s,
                            100.0 * s / capacity);
        std::printf("  (mem, policy and runahead run inside core.detail; "
                    "their host cost is read from mem.ns_per_access and "
                    "core.ns_per_cycle.<policy>)\n");
    }
}

Json
resultJson(const Report &r, const Json &host)
{
    Json out = Json::object();
    out["workload"] = r.workload;
    out["seed"] = r.seed;
    out["traced"] = r.traced;
    out["attempted"] = r.attempted;
    out["failed"] = r.failed;
    Json failures = Json::array();
    for (const std::string &f : r.failures)
        failures.push(f);
    out["failures"] = std::move(failures);
    Json metrics = Json::object();
    for (const auto &[name, m] : r.metrics) {
        Json j = Json::object();
        j["value"] = m.value;
        j["unit"] = m.unit;
        j["samples"] = static_cast<std::uint64_t>(m.samples);
        j["note"] = m.note;
        metrics[name] = std::move(j);
    }
    out["metrics"] = std::move(metrics);
    if (r.traced) {
        Json layers = Json::object();
        double attributed = 0.0;
        for (const auto &[layer, s] : r.layerSelf) {
            layers[layer] = s;
            attributed += s;
        }
        layers["unattributed"] =
            r.tracedWall * r.tracedThreads - attributed;
        out["layer_self_s"] = std::move(layers);
        Json byName = Json::object();
        for (const auto &[name, s] : r.spanSelf)
            byName[name] = s;
        out["span_self_s"] = std::move(byName);
        out["traced_wall_s"] = r.tracedWall;
        out["traced_threads"] = static_cast<std::uint64_t>(r.tracedThreads);
    }
    Json cells = Json::array();
    for (const auto &[label, wall] : r.cellWalls) {
        Json c = Json::object();
        c["cell"] = label;
        c["wall_s"] = wall;
        cells.push(std::move(c));
    }
    out["cell_walls"] = std::move(cells);
    out["host"] = host;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);

    // runFarm execs this binary as its worker processes.
    if (!args.empty() && args[0] == "--farm-worker") {
        std::string cache;
        unsigned id = 0;
        std::uint64_t killAfter = 0;
        for (std::size_t i = 1; i + 1 < args.size(); i += 2) {
            if (args[i] == "--cache")
                cache = args[i + 1];
            else if (args[i] == "--worker-id")
                id = static_cast<unsigned>(
                    parseUnsigned(args[i + 1], "--worker-id"));
            else if (args[i] == "--test-kill-after")
                killAfter = parseUnsigned(args[i + 1], "--test-kill-after");
        }
        return rat::sim::farmWorkerMain(cache, id, killAfter);
    }

    Options opt;
    std::string outPath, spansPath, commit = "unknown";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const auto value = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                usageError(a + " needs a value");
            return args[++i];
        };
        if (a == "--workload") {
            opt.workload = value();
            haveWorkload = true;
        } else if (a == "--seed") {
            opt.seed = parseUnsigned(value(), "--seed");
            haveSeed = true;
        } else if (a == "--seconds") {
            opt.seconds =
                static_cast<double>(parseUnsigned(value(), "--seconds"));
            haveSeconds = opt.seconds >= 1.0;
        } else if (a == "--trace") {
            const std::string &t = value();
            if (t != "0" && t != "1")
                usageError("--trace takes 0 or 1");
            opt.trace = t == "1";
            haveTrace = true;
        } else if (a == "--out") {
            outPath = value();
        } else if (a == "--spans") {
            spansPath = value();
        } else if (a == "--tmp") {
            opt.tmpDir = value();
        } else if (a == "--digests") {
            opt.digestFile = value();
        } else if (a == "--commit") {
            commit = value();
        } else if (a == "--record-digests") {
            opt.recordDigests = true;
        } else {
            usageError("unknown option '" + a + "'");
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        usageError("--workload, --seed, --seconds (>= 1) and --trace are "
                   "required");
    if (opt.recordDigests && (opt.seed != kDigestSeed || opt.trace))
        usageError("--record-digests needs --seed 1 --trace 0");

    // Build guard: timings of unoptimized code are meaningless here.
    const bool release = std::strcmp(RATBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
    const bool ndebug = false;
#else
    const bool ndebug = true;
#endif
    if (!release || !ndebug) {
        std::fprintf(stderr,
                     "ratbench: refusing to time a '%s' build; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     RATBENCH_BUILD_TYPE);
        return 3;
    }

    if (opt.tmpDir.empty())
        opt.tmpDir = (std::filesystem::temp_directory_path() /
                      ("ratbench-" + std::to_string(::getpid())))
                         .string();
    std::filesystem::create_directories(opt.tmpDir);

    Json host = Json::object();
    host["nproc"] = static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN));
    host["loadavg_start"] = loadAverage();
    host["compiler"] = RATBENCH_COMPILER;
    host["build_type"] = RATBENCH_BUILD_TYPE;
    host["lto"] = static_cast<bool>(RATBENCH_LTO);
    host["commit"] = commit;

    SpanLog spans(opt.trace, opt.workload);
    Report report;
    try {
        if (!runWorkload(opt, spans, report)) {
            std::string known;
            for (const std::string &w : workloadNames())
                known += " " + w;
            usageError("unknown workload '" + opt.workload +
                       "'; known:" + known);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ratbench: %s\n", e.what());
        return 1;
    }
    std::filesystem::remove_all(opt.tmpDir);
    host["loadavg_end"] = loadAverage();
    if (opt.recordDigests)
        return report.failed ? 1 : 0;

    printReport(report, host);
    if (!spansPath.empty()) {
        std::ofstream f(spansPath);
        f << spans.chromeJson();
        if (!f) {
            std::fprintf(stderr, "ratbench: cannot write %s\n",
                         spansPath.c_str());
            return 1;
        }
        std::printf("spans: %s (Chrome trace-event JSON; load in "
                    "Perfetto)\n",
                    spansPath.c_str());
    }
    if (!outPath.empty()) {
        std::ofstream f(outPath);
        f << resultJson(report, host).dump(2) << "\n";
        if (!f) {
            std::fprintf(stderr, "ratbench: cannot write %s\n",
                         outPath.c_str());
            return 1;
        }
    }
    return 0;
}
