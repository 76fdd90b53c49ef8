/**
 * @file
 * Sampled-simulation driver implementation. See sampled.hh for the
 * pipeline overview.
 */

#include "sim/sampled.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "check/fnv.hh"
#include "common/logging.hh"
#include "sim/checkpoint.hh"
#include "sim/metrics.hh"
#include "trace/generator.hh"

namespace rat::sim {
namespace {

/**
 * Identity of a phase plan: everything profilePhases' result depends
 * on. Canonical over policy / structure sizes, so a whole technique
 * sweep shares one profiling pass.
 */
std::uint64_t
planKey(const SimConfig &cfg, const std::vector<std::string> &programs)
{
    check::Fnv64 h;
    h.u64(0x706C616E31ULL); // "plan1"
    h.u64(cfg.seed);
    h.u64(cfg.prewarmInsts);
    h.u64(cfg.phaseWindow);
    h.u64(cfg.phaseSpanWindows);
    h.u64(cfg.samplePhases);
    h.u64(programs.size());
    for (const std::string &p : programs) {
        h.u64(p.size());
        for (char c : p)
            h.u64(static_cast<unsigned char>(c));
    }
    return h.value();
}

/**
 * Process-wide checkpoint registry: blob by file key. Guarded by
 * registryMutex().
 */
std::map<std::uint64_t, std::string> &
checkpointRegistry()
{
    static std::map<std::uint64_t, std::string> blobs;
    return blobs;
}

std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

/** Per-thread trace position of sample @p s of @p cfg's plan. */
InstSeq
samplePosition(const SimConfig &cfg, const trace::PhaseSample &s)
{
    return cfg.prewarmInsts + InstSeq{s.windowIndex} * cfg.phaseWindow;
}

std::string
checkpointPath(const std::string &dir, std::uint64_t key)
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.%s",
                  static_cast<unsigned long long>(key),
                  CheckpointCodec::kMagic);
    return (std::filesystem::path(dir) / name).string();
}

bool
readFileBlob(const std::string &path, std::string &blob)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    return in.good() || in.eof();
}

/**
 * Atomic (write-temp-then-rename) checkpoint persistence. The temp name
 * is unique per process and write, so concurrent writers of one key
 * (threads of a sweep, farm workers sharing the directory) never tear
 * each other's file; the last rename wins with a whole blob.
 */
void
writeFileBlob(const std::string &dir, const std::string &path,
              const std::string &blob)
{
    static std::atomic<std::uint64_t> seq{0};
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string tmp = path + "." + std::to_string(::getpid()) +
                            "." + std::to_string(seq.fetch_add(1)) +
                            ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return;
        out.write(blob.data(),
                  static_cast<std::streamsize>(blob.size()));
        if (!out.good()) {
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

/**
 * Ensure checkpoints for every sample of @p plan exist in the
 * process-wide registry (and @p ckptDir when given), building missing
 * ones with one incremental functional walk. Returns the blob for
 * @p wantKey ("" if encoding was refused — callers fall back to a
 * fresh walk).
 *
 * Serialized by the registry mutex: within one process the walk
 * happens once per workload identity and every later sample is a
 * registry hit. prewarm() is incremental (bit-identical to one-shot),
 * so one walker visits all representatives in ascending order. The
 * walk runs alone (a cell runs its samples one after another, and
 * every other sampled job waits on the mutex), so it takes
 * prewarmWalkWorkers() workers.
 */
std::string
ensureCheckpoints(const SimConfig &cfg,
                  const std::vector<std::string> &programs,
                  const trace::PhaseProfile &plan,
                  const std::string &ckptDir, std::uint64_t wantKey)
{
    std::map<std::uint64_t, std::string> &blobs = checkpointRegistry();
    std::lock_guard<std::mutex> lock(registryMutex());
    const auto hit = blobs.find(wantKey);
    if (hit != blobs.end())
        return hit->second;

    // Collect the samples still missing (memory, then files).
    std::vector<std::pair<InstSeq, std::uint64_t>> missing;
    for (const trace::PhaseSample &s : plan.samples) {
        const InstSeq pos = samplePosition(cfg, s);
        const std::uint64_t key =
            CheckpointCodec::fileKey(cfg, programs, pos);
        if (blobs.count(key))
            continue;
        std::string blob;
        if (!ckptDir.empty() &&
            readFileBlob(checkpointPath(ckptDir, key), blob)) {
            blobs.emplace(key, std::move(blob));
            continue;
        }
        missing.emplace_back(pos, key);
    }

    if (!missing.empty()) {
        // One walker simulator, positions ascending; the policy and
        // pipeline configuration are irrelevant (only prewarm runs).
        std::sort(missing.begin(), missing.end());
        Simulator walker(cfg, programs);
        const unsigned workers = prewarmWalkWorkers();
        InstSeq walked = 0;
        for (const auto &[pos, key] : missing) {
            walker.smtCore().prewarm(pos - walked, workers);
            walked = pos;
            std::string blob = CheckpointCodec::encode(walker);
            if (blob.empty()) {
                warn("checkpoint encode refused at position %llu",
                     (unsigned long long)pos);
                continue;
            }
            if (!ckptDir.empty())
                writeFileBlob(ckptDir, checkpointPath(ckptDir, key),
                              blob);
            blobs.emplace(key, std::move(blob));
        }
    }

    const auto it = blobs.find(wantKey);
    return it == blobs.end() ? std::string{} : it->second;
}

/**
 * Replace checkpoint @p key with @p blob, freshly encoded by a walk
 * after the old blob was missing or refused, in the registry and in
 * @p ckptDir. Without this a refused blob, say one written by a build
 * with another state layout, would be served again to every later
 * sample of the workload, here and in every later process.
 */
void
replaceCheckpoint(std::uint64_t key, const std::string &blob,
                  const std::string &ckptDir)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    checkpointRegistry()[key] = blob;
    if (!ckptDir.empty() && !blob.empty())
        writeFileBlob(ckptDir, checkpointPath(ckptDir, key), blob);
}

/** Exact-semantics execution config for one sample at @p position. */
SimConfig
sampleExecConfig(const SimConfig &cfg, InstSeq position)
{
    SimConfig exec = cfg;
    exec.sampled = false;
    exec.sampleIndex = -1;
    exec.prewarmInsts = position;
    exec.warmupCycles = cfg.sampleWarmupCycles;
    exec.measureCycles = cfg.sampleMeasureCycles;
    // Host-side hooks are validated off in sampled mode; keep the
    // execution config clean regardless.
    exec.sampleWindow = 0;
    exec.digestWindow = 0;
    exec.mutateAtCycle = 0;
    exec.captureStateAtCycle = 0;
    exec.traceOut.clear();
    return exec;
}

/** Run sample @p index of @p cfg's plan, attaching its metadata. */
SimResult
runOneSample(const SimConfig &cfg, const std::vector<std::string> &programs,
             const trace::PhaseProfile &plan, unsigned index,
             const std::string &ckptDir)
{
    const trace::PhaseSample &s = plan.samples[index];
    const InstSeq position = samplePosition(cfg, s);
    const SimConfig exec = sampleExecConfig(cfg, position);
    const std::uint64_t key =
        CheckpointCodec::fileKey(cfg, programs, position);

    PrewarmCheckpoint ckpt{
        key, ensureCheckpoints(cfg, programs, plan, ckptDir, key)};
    bool restored = false;
    SimResult result = restoreOrWalk(exec, programs, ckpt, restored);
    if (!restored)
        replaceCheckpoint(key, ckpt.blob, ckptDir);

    result.sampled.enabled = true;
    result.sampled.merged = false;
    result.sampled.sampleIndex = static_cast<int>(index);
    result.sampled.windowIndex = s.windowIndex;
    result.sampled.weight = s.weight;
    return result;
}

/** Weighted relative dispersion sqrt(sum w (x - mean)^2 / W) / mean. */
double
weightedDispersion(const std::vector<double> &x,
                   const std::vector<double> &w)
{
    double totalW = 0.0, mean = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        totalW += w[i];
        mean += w[i] * x[i];
    }
    if (totalW <= 0.0)
        return 0.0;
    mean /= totalW;
    if (mean == 0.0)
        return 0.0;
    double var = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - mean;
        var += w[i] * d * d;
    }
    return std::sqrt(var / totalW) / std::abs(mean);
}

} // namespace

const trace::PhaseProfile &
samplePlanFor(const SimConfig &cfg, const std::vector<std::string> &programs)
{
    static std::map<std::uint64_t, trace::PhaseProfile> plans;
    static std::mutex m;

    const std::uint64_t key = planKey(cfg, programs);
    std::lock_guard<std::mutex> lock(m);
    const auto hit = plans.find(key);
    if (hit != plans.end())
        return hit->second;

    const auto gens = makeStreams(cfg.seed, programs);
    std::vector<const trace::TraceSource *> streams;
    for (const auto &g : gens)
        streams.push_back(g.get());
    trace::PhaseConfig pc;
    pc.window = cfg.phaseWindow;
    pc.spanWindows = cfg.phaseSpanWindows;
    pc.phases = cfg.samplePhases;
    return plans.emplace(key, trace::profilePhases(streams,
                                                   cfg.prewarmInsts, pc))
        .first->second;
}

std::string
checkpointDirFor(const std::string &cacheDir)
{
    if (cacheDir.empty())
        return {};
    return (std::filesystem::path(cacheDir) / "ckpt").string();
}

SimResult
mergeSampledResults(const SimConfig &cfg,
                    const std::vector<std::string> &programs,
                    const std::vector<SimResult> &samples)
{
    if (samples.empty())
        fatal("mergeSampledResults: no samples");

    const trace::PhaseProfile &plan = samplePlanFor(cfg, programs);
    std::vector<const SimResult *> byIndex(plan.samples.size(), nullptr);
    for (const SimResult &s : samples) {
        const int idx = s.sampled.sampleIndex;
        if (idx < 0 ||
            static_cast<std::size_t>(idx) >= byIndex.size())
            fatal("mergeSampledResults: sample index %d out of range "
                  "(plan has %u samples)",
                  idx, static_cast<unsigned>(byIndex.size()));
        byIndex[static_cast<std::size_t>(idx)] = &s;
    }
    for (const SimResult *s : byIndex) {
        if (!s)
            fatal("mergeSampledResults: plan sample missing from the "
                  "sample set");
    }

    const double target = static_cast<double>(cfg.measureCycles);

    // Trajectory reconstruction: traverse the profiled windows in
    // order, charging each an estimated cycle cost of
    // threads * window / aggIpc(its phase) — a slow phase takes more
    // cycles to traverse its instructions. Burn the detailed warmup
    // first, then account measured cycles to each phase until the full
    // window is consumed. cw[j] is then the cycles the reconstructed
    // run spends measuring phase j: the weight that makes per-cycle
    // rate averaging match the real run's time allocation (a plain
    // instruction-weighted mean would overweight fast phases — the
    // classic arithmetic-vs-harmonic-mean IPC error) and that clips
    // the span to what the run actually executes under this policy.
    const double threads =
        static_cast<double>(samples.front().threads.size());
    const double window = static_cast<double>(cfg.phaseWindow);
    std::vector<double> cw(byIndex.size(), 0.0);
    double warmLeft = static_cast<double>(cfg.warmupCycles);
    double measLeft = target;
    for (unsigned w = 0; w < plan.spanWindows; ++w) {
        const unsigned j = plan.assignment[w];
        const double aggIpc = byIndex[j]->totalIpc();
        // No forward progress: the trajectory never leaves this phase.
        double cost = aggIpc > 0.0
                          ? threads * window / aggIpc
                          : warmLeft + measLeft;
        if (warmLeft > 0.0) {
            const double burn = std::min(cost, warmLeft);
            warmLeft -= burn;
            cost -= burn;
        }
        if (cost <= 0.0)
            continue;
        const double take = std::min(cost, measLeft);
        cw[j] += take;
        measLeft -= take;
        if (measLeft <= 0.0)
            break;
    }
    if (measLeft > 0.0) {
        // The profiled span is shorter than the run's appetite: the
        // tail re-uses the span's phase mix (scale covered weights up;
        // with no coverage at all, fall back to cluster populations).
        const double have = target - measLeft;
        if (have > 0.0) {
            for (double &x : cw)
                x *= target / have;
        } else {
            for (std::size_t j = 0; j < byIndex.size(); ++j)
                cw[j] = static_cast<double>(
                    byIndex[j]->sampled.weight);
        }
    }
    double totalCw = 0.0;
    for (const double x : cw)
        totalCw += x;
    if (totalCw <= 0.0)
        fatal("mergeSampledResults: zero total weight");
    SimResult merged;
    merged.cycles = cfg.measureCycles;
    merged.threads.resize(samples.front().threads.size());

    // Cycle-weighted per-cycle rate of one counter across samples,
    // scaled to the full measured window.
    const auto extrapolate = [&](auto counterOf) {
        double rate = 0.0;
        for (std::size_t j = 0; j < byIndex.size(); ++j) {
            const SimResult &s = *byIndex[j];
            const double cyc = static_cast<double>(s.cycles);
            if (cyc <= 0.0)
                continue;
            rate += cw[j] * (static_cast<double>(counterOf(s)) / cyc);
        }
        return static_cast<std::uint64_t>(
            std::llround(rate / totalCw * target));
    };

    for (std::size_t t = 0; t < merged.threads.size(); ++t) {
        ThreadResult &tr = merged.threads[t];
        tr.program = samples.front().threads[t].program;
        for (const auto &c : core::kThreadStatsCounters) {
            tr.core.*c.member = extrapolate([t, &c](const SimResult &s) {
                return s.threads[t].core.*c.member;
            });
        }
        for (const auto &c : mem::kThreadMemStatsCounters) {
            tr.mem.*c.member = extrapolate([t, &c](const SimResult &s) {
                return s.threads[t].mem.*c.member;
            });
        }
        // IPC is the cycle-weighted mean of the per-sample IPCs
        // (identical to rate-extrapolated committed / cycles up to
        // rounding; computed directly so the headline number carries no
        // rounding error).
        double ipc = 0.0;
        for (std::size_t j = 0; j < byIndex.size(); ++j)
            ipc += cw[j] * byIndex[j]->threads[t].ipc;
        tr.ipc = ipc / totalCw;
        tr.l2Mpki = tr.core.committedInsts
                        ? 1000.0 *
                              static_cast<double>(tr.mem.l2DemandMisses) /
                              static_cast<double>(tr.core.committedInsts)
                        : 0.0;
    }
    for (const auto &c : runahead::kEngineStatsCounters) {
        merged.engine.*c.member = extrapolate([&c](const SimResult &s) {
            return s.engine.*c.member;
        });
    }

    // Error estimate: weighted relative dispersion of the per-sample
    // summary metrics. A single-phase workload has one sample and
    // reports zero dispersion — the degenerate case is exact.
    std::vector<double> ipcs, hmeans;
    for (const SimResult *s : byIndex) {
        ipcs.push_back(s->totalIpc());
        hmeans.push_back(hmeanIpc(*s));
    }
    merged.sampled.enabled = true;
    merged.sampled.merged = true;
    merged.sampled.sampleIndex = -1;
    merged.sampled.phases = static_cast<unsigned>(samples.size());
    merged.sampled.totalWindows = plan.totalWeight();
    merged.sampled.ipcError = weightedDispersion(ipcs, cw);
    merged.sampled.hmeanError = weightedDispersion(hmeans, cw);
    return merged;
}

SimResult
simulateCell(const SimConfig &cfg, const std::vector<std::string> &programs,
             const std::string &ckptDir)
{
    if (!cfg.sampled) {
        Simulator sim(cfg, programs);
        return sim.run();
    }

    const trace::PhaseProfile &plan = samplePlanFor(cfg, programs);
    if (plan.samples.empty())
        fatal("sampled simulation: empty phase plan");

    if (cfg.sampleIndex >= 0) {
        if (static_cast<std::size_t>(cfg.sampleIndex) >=
            plan.samples.size()) {
            fatal("sampled simulation: sample index %d out of range "
                  "(plan has %u samples)",
                  cfg.sampleIndex,
                  static_cast<unsigned>(plan.samples.size()));
        }
        return runOneSample(cfg, programs, plan,
                            static_cast<unsigned>(cfg.sampleIndex),
                            ckptDir);
    }

    std::vector<SimResult> samples;
    for (unsigned i = 0; i < plan.samples.size(); ++i)
        samples.push_back(
            runOneSample(cfg, programs, plan, i, ckptDir));
    return mergeSampledResults(cfg, programs, samples);
}

} // namespace rat::sim
