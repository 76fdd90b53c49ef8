#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif
#ifdef __linux__
#include <sched.h>
#endif

#include "check/digest.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "policy/factory.hh"
#include "trace/profile.hh"

namespace rat::sim {

namespace {

/**
 * Sweeps and benchmarks construct and destroy Simulators back to back.
 * By default glibc may hand the ~1.3 MB a core frees at teardown back to
 * the OS (whether it does depends on the heap layout left behind), and
 * the next construction then page-faults all of it again: about five
 * times the cost of a construction that reuses the memory. Keep blocks
 * of that size on the heap and freed memory in the process. Set once,
 * process-wide; it cannot affect results.
 */
void
retainFreedHeap()
{
#ifdef __GLIBC__
    static const bool once = [] {
        mallopt(M_MMAP_THRESHOLD, 4 << 20);
        mallopt(M_TRIM_THRESHOLD, 32 << 20);
        return true;
    }();
    (void)once;
#endif
}

} // namespace

unsigned
usableCpus()
{
    unsigned cpus = std::thread::hardware_concurrency();
#ifdef __linux__
    // hardware_concurrency() counts the online CPUs, also those a
    // taskset or cpuset keeps this process off.
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
        cpus = static_cast<unsigned>(CPU_COUNT(&allowed));
#endif
    return std::max(cpus, 1u);
}

unsigned
prewarmWalkWorkers()
{
    return std::min(usableCpus(), core::SmtCore::kWalkLanes);
}

double
SimResult::totalIpc() const
{
    double sum = 0.0;
    for (const ThreadResult &t : threads)
        sum += t.ipc;
    return sum;
}

double
SimResult::throughputEq1() const
{
    return threads.empty() ? 0.0 : totalIpc() / threads.size();
}

std::uint64_t
SimResult::committedTotal() const
{
    std::uint64_t sum = 0;
    for (const ThreadResult &t : threads)
        sum += t.core.committedInsts;
    return sum;
}

std::uint64_t
SimResult::executedTotal() const
{
    std::uint64_t sum = 0;
    for (const ThreadResult &t : threads)
        sum += t.core.executedInsts;
    return sum;
}

std::vector<std::unique_ptr<trace::TraceGenerator>>
makeStreams(std::uint64_t seed, const std::vector<std::string> &programs)
{
    std::vector<std::unique_ptr<trace::TraceGenerator>> gens;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const std::uint64_t stream_seed =
            hashCombine(seed, hashCombine(i + 1, 0x7261747321ULL));
        const Addr base = (static_cast<Addr>(i) + 1) << 40; // 1 TiB apart
        gens.push_back(std::make_unique<trace::TraceGenerator>(
            trace::spec2000(programs[i]), stream_seed, base));
    }
    return gens;
}

void
checkRunLength(const SimConfig &config)
{
    const std::pair<const char *, std::uint64_t> phases[] = {
        {"prewarmInsts", config.prewarmInsts},
        {"warmupCycles", config.warmupCycles},
        {"measureCycles", config.measureCycles},
    };
    std::uint64_t total = 0;
    for (const auto &[field, length] : phases) {
        if (length > kMaxRunCycles - total)
            fatal("%s: %llu takes prewarm + warmup + measure past the "
                  "limit of %llu cycles",
                  field, static_cast<unsigned long long>(length),
                  static_cast<unsigned long long>(kMaxRunCycles));
        total += length;
    }
}

Simulator::Simulator(SimConfig config, std::vector<std::string> programs)
    : config_(std::move(config)), programs_(std::move(programs))
{
    retainFreedHeap();
    checkRunLength(config_);
    if (programs_.empty())
        fatal("simulator needs at least one program");
    config_.core.numThreads = static_cast<unsigned>(programs_.size());

    mem_ = std::make_unique<mem::MemoryHierarchy>(config_.mem);

    gens_ = makeStreams(config_.seed, programs_);
    std::vector<const trace::TraceSource *> streams;
    for (const auto &gen : gens_)
        streams.push_back(gen.get());

    policy_ = policy::makePolicy(config_.core.policy);
    core_ = std::make_unique<core::SmtCore>(config_.core, *mem_, *policy_,
                                            std::move(streams));
}

Simulator::~Simulator() = default;

SimResult
Simulator::run(PhaseTiming *timing)
{
    using Clock = std::chrono::steady_clock;
    const auto seconds_since = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    // Observation only: the tracer and sampler receive copies of core
    // state but never feed anything back, so attaching them cannot
    // change the simulation (pinned by the TraceSmoke identity test).
    std::unique_ptr<obs::Tracer> tracer;
    if (!config_.traceOut.empty()) {
        tracer = std::make_unique<obs::Tracer>(
            config_.traceCategories,
            static_cast<unsigned>(programs_.size()));
        core_->setTracer(tracer.get());
        mem_->setTracer(tracer.get());
    }

    auto t0 = Clock::now();
    core_->prewarm(config_.prewarmInsts, prewarmWalkWorkers());
    if (timing)
        timing->prewarmSeconds = seconds_since(t0);

    t0 = Clock::now();
    core_->run(config_.warmupCycles);
    if (timing) {
        timing->warmupSeconds = seconds_since(t0);
        timing->warmupSkippedCycles = core_->skipStats().skippedCycles;
    }
    // resetStats also clears the skip counters, so the measured window
    // accounts its fast-forwards separately; run() never skips past the
    // requested cycle count, so this boundary lands exactly.
    core_->resetStats();
    mem_->resetStats();
    // The trace covers exactly the measured window, like the stats.
    if (tracer)
        tracer->clear();
    obs::WindowSampler sampler(config_.sampleWindow);
    if (config_.sampleWindow) {
        sampler.reset(core_->cycle());
        core_->setSampler(&sampler);
    }
    check::DigestCollector digests(config_.digestWindow);
    if (config_.digestWindow) {
        digests.reset(core_->cycle());
        if (config_.captureStateAtCycle)
            digests.setCaptureAt(config_.captureStateAtCycle);
        core_->setDigestCollector(&digests);
    }
    // Verify-only hook; off by default and cannot fire otherwise.
    if (config_.mutateAtCycle)
        core_->armMutationAt(core_->cycle() + config_.mutateAtCycle);

    t0 = Clock::now();
    const Cycle start = core_->cycle();
    core_->run(config_.measureCycles);
    const Cycle elapsed = core_->cycle() - start;
    if (timing) {
        timing->measureSeconds = seconds_since(t0);
        timing->measureSkippedCycles = core_->skipStats().skippedCycles;
        timing->measureSkipSpans = core_->skipStats().skipSpans;
    }
    core_->setSampler(nullptr);
    core_->setDigestCollector(nullptr);

    SimResult result;
    result.cycles = elapsed;
    result.engine = core_->runaheadEngine().stats();
    if (config_.sampleWindow)
        result.telemetry = sampler.result();
    if (config_.digestWindow) {
        result.digest = digests.track();
        result.stateDump = digests.capturedDump();
    }
    for (std::size_t i = 0; i < programs_.size(); ++i) {
        const auto tid = static_cast<ThreadId>(i);
        ThreadResult tr;
        tr.program = programs_[i];
        tr.core = core_->threadStats(tid);
        tr.mem = mem_->threadStats(tid);
        tr.ipc = elapsed ? static_cast<double>(tr.core.committedInsts) /
                               static_cast<double>(elapsed)
                         : 0.0;
        tr.l2Mpki =
            tr.core.committedInsts
                ? 1000.0 * static_cast<double>(tr.mem.l2DemandMisses) /
                      static_cast<double>(tr.core.committedInsts)
                : 0.0;
        result.threads.push_back(std::move(tr));
    }

    if (tracer) {
        core_->setTracer(nullptr);
        mem_->setTracer(nullptr);
        std::string error;
        if (!tracer->writeTo(config_.traceOut, &error))
            warn("trace export failed: %s", error.c_str());
        else
            inform("wrote trace %s (%llu events, %llu dropped)",
                   config_.traceOut.c_str(),
                   (unsigned long long)tracer->retainedEvents(),
                   (unsigned long long)tracer->droppedEvents());
    }
    return result;
}

} // namespace rat::sim
