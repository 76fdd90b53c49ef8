#include "sim/farm.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "report/result_cache.hh"
#include "report/serialize.hh"
#include "report/wire.hh"
#include "sim/checkpoint.hh"
#include "sim/sampled.hh"

namespace rat::sim {

namespace {

/** JSON frame sent coordinator -> worker for one grid cell. The
 * attempt number (how many workers already died holding this cell)
 * rides along so the worker's fault-injection draws are independent
 * per retry — a cell that drew "kill" on attempt 0 redraws on attempt
 * 1 instead of dying identically forever. */
std::string
jobFrame(const CampaignCell &cell, std::size_t index, unsigned attempt)
{
    report::Json job = report::Json::object();
    job["index"] = report::Json(static_cast<std::uint64_t>(index));
    job["attempt"] = report::Json(std::uint64_t{attempt});
    job["key"] = report::Json(cell.key);
    job["config"] = report::toJson(cell.config);
    report::Json progs = report::Json::array();
    for (const std::string &p : cell.programs)
        progs.push(report::Json(p));
    job["programs"] = std::move(progs);
    return job.dump();
}

/** Resolve the running executable (worker re-exec target). */
std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return {};
    buf[n] = '\0';
    return buf;
}

/** Scoped SIGPIPE suppression: a worker dying between poll()s must
 * surface as a write error, not kill the coordinator. */
class IgnoreSigpipe
{
  public:
    IgnoreSigpipe()
    {
        struct sigaction ign = {};
        ign.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ign, &old_);
    }
    ~IgnoreSigpipe() { ::sigaction(SIGPIPE, &old_, nullptr); }

  private:
    struct sigaction old_ = {};
};

/** Set by the SIGINT/SIGTERM handler; the coordinator's run loop polls
 * it and winds the farm down instead of dying with live children. */
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void
farmInterruptHandler(int)
{
    g_interrupted = 1;
}

/** Scoped SIGINT/SIGTERM capture. Installed without SA_RESTART on
 * purpose: the signal must interrupt a blocking poll() (EINTR) so the
 * run loop notices the flag promptly. Restores the previous handlers
 * on destruction, so a farm embedded in a larger program (or the test
 * binary) does not permanently steal Ctrl-C. */
class InterruptGuard
{
  public:
    InterruptGuard()
    {
        g_interrupted = 0;
        struct sigaction sa = {};
        sa.sa_handler = farmInterruptHandler;
        ::sigaction(SIGINT, &sa, &oldInt_);
        ::sigaction(SIGTERM, &sa, &oldTerm_);
    }
    ~InterruptGuard()
    {
        ::sigaction(SIGINT, &oldInt_, nullptr);
        ::sigaction(SIGTERM, &oldTerm_, nullptr);
    }
    InterruptGuard(const InterruptGuard &) = delete;
    InterruptGuard &operator=(const InterruptGuard &) = delete;

  private:
    struct sigaction oldInt_ = {};
    struct sigaction oldTerm_ = {};
};

/** Log pre-line hook while the --progress live line is on screen:
 * erase the in-place line so warn()/inform() output starts on a clean
 * column instead of interleaving with a half-repainted progress line. */
void
eraseProgressLine()
{
    std::fprintf(stderr, "\r\033[K");
}

/** Scoped registration of eraseProgressLine for --progress runs. */
class ProgressLineGuard
{
  public:
    explicit ProgressLineGuard(bool active) : active_(active)
    {
        if (active_)
            setLogPreLineHook(eraseProgressLine);
    }
    ~ProgressLineGuard()
    {
        if (active_)
            setLogPreLineHook(nullptr);
    }
    ProgressLineGuard(const ProgressLineGuard &) = delete;
    ProgressLineGuard &operator=(const ProgressLineGuard &) = delete;

  private:
    bool active_;
};

/** One worker slot as the coordinator sees it. A slot outlives any
 * single worker process: when respawning is on, a dead slot is
 * refilled (after backoff) by a fresh process with the same slot id. */
struct WorkerProc {
    pid_t pid = -1;
    int jobFd = -1; ///< coordinator writes job frames here
    int resFd = -1; ///< coordinator reads result frames here (nonblock)
    report::FrameBuffer buf;
    std::optional<std::size_t> inflight; ///< lead cell index
    std::optional<std::size_t> job;      ///< campaign job being drained
    unsigned slot = 0;                   ///< stable slot id
    unsigned respawnCount = 0; ///< processes this slot has consumed - 1
    bool alive = false;
    bool writable = false;
    /** Dead slot scheduled for a respawn attempt at respawnAt. */
    bool respawnPending = false;
    std::chrono::steady_clock::time_point respawnAt{};
    /** Liveness watermark: last job sent to — or frame seen from —
     * this worker. The --job-timeout watchdog measures from here. */
    std::chrono::steady_clock::time_point lastActivity{};
};

struct Coordinator {
    const CampaignSpec &spec;
    const FarmOptions &options;
    CampaignOutcome &outcome;
    const report::ResultCache &cache;

    /** campaignJobs' lead cells, left to hand out; jobs[0, jobsStarted)
     * have been started by some worker. */
    std::vector<std::deque<std::size_t>> jobs = {};
    std::size_t jobsStarted = 0;
    std::vector<WorkerProc> workers = {};
    FarmOutcome *farm = nullptr;
    std::string binary = {}; ///< worker exec target (for respawns)

    std::uint64_t cellsDone = 0; ///< results + failures + quarantines
    std::uint64_t cellsTotal = 0;
    std::uint64_t simulated = 0;
    std::uint64_t failedStores = 0;
    std::uint64_t prewarmWalks = 0;
    std::uint64_t prewarmRestores = 0;

    /** Worker deaths per lead cell — the retry budget's ledger and
     * the attempt number sent with each job. */
    std::map<std::size_t, unsigned> attempts = {};
    /** Crash-loop breaker: respawns since the last retired cell.
     * When every respawned worker dies without landing anything,
     * respawning stops and the farm fails over to the resume path. */
    std::uint64_t respawnsSinceProgress = 0;

    bool spawnWorker(unsigned slot, std::uint64_t kill_after);
    bool feedWorker(std::size_t w);
    void drainWorker(std::size_t w);
    void handleFrame(std::size_t w, const std::string &payload);
    void workerGone(std::size_t w);
    void checkLiveness();
    void maybeRespawn();
    bool workAvailable() const;
    bool respawnViable() const;
    std::uint64_t respawnBudget() const;
    int pollTimeoutMs() const;
    void noteCellDone();
    void printProgress();
    void run();

    /** Wall-clock start of the farm run (for the --progress ETA). */
    std::chrono::steady_clock::time_point startedAt{};
};

bool
Coordinator::spawnWorker(unsigned slot, std::uint64_t kill_after)
{
    // Chaos injection: a spawn failure at (slot, respawn count) —
    // models fork() failing under memory/pid pressure. The context is
    // scoped to this call so no other coordinator-side code path can
    // ever take a fault decision.
    auto &injector = FaultInjector::global();
    injector.setContext(slot, workers[slot].respawnCount);
    const bool spawn_fault = injector.fire(FaultKind::SpawnFail);
    injector.clearContext();
    if (spawn_fault) {
        warn("farm: injected spawn failure for worker slot %u", slot);
        return false;
    }

    int job_pipe[2], res_pipe[2];
    if (::pipe(job_pipe) != 0)
        return false;
    if (::pipe(res_pipe) != 0) {
        ::close(job_pipe[0]);
        ::close(job_pipe[1]);
        return false;
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        for (const int fd : {job_pipe[0], job_pipe[1], res_pipe[0],
                             res_pipe[1]})
            ::close(fd);
        return false;
    }
    if (pid == 0) {
        // Child: jobs arrive on stdin, results leave on stdout.
        ::dup2(job_pipe[0], STDIN_FILENO);
        ::dup2(res_pipe[1], STDOUT_FILENO);
        for (const int fd : {job_pipe[0], job_pipe[1], res_pipe[0],
                             res_pipe[1]})
            ::close(fd);
        std::vector<const char *> argv = {binary.c_str(),
                                          "--farm-worker"};
        const std::string id_text = std::to_string(slot);
        argv.push_back("--worker-id");
        argv.push_back(id_text.c_str());
        if (!spec.cacheDir.empty()) {
            argv.push_back("--cache");
            argv.push_back(spec.cacheDir.c_str());
        }
        std::string kill_text;
        if (kill_after > 0) {
            kill_text = std::to_string(kill_after);
            argv.push_back("--test-kill-after");
            argv.push_back(kill_text.c_str());
        }
        argv.push_back(nullptr);
        ::execv(binary.c_str(),
                const_cast<char *const *>(argv.data()));
        ::_exit(127);
    }

    // Parent.
    ::close(job_pipe[0]);
    ::close(res_pipe[1]);
    ::fcntl(res_pipe[0], F_SETFL, O_NONBLOCK);
    // Keep farm pipes out of later-forked siblings.
    ::fcntl(job_pipe[1], F_SETFD, FD_CLOEXEC);
    ::fcntl(res_pipe[0], F_SETFD, FD_CLOEXEC);

    // Fill the slot in place (the vector is pre-sized to the worker
    // count): a respawned process inherits the slot's job and
    // respawn counter but starts with a fresh frame buffer and a
    // clean inflight state.
    WorkerProc w;
    w.pid = pid;
    w.jobFd = job_pipe[1];
    w.resFd = res_pipe[0];
    w.job = workers[slot].job;
    w.slot = slot;
    w.respawnCount = workers[slot].respawnCount;
    w.alive = true;
    w.writable = true;
    w.lastActivity = std::chrono::steady_clock::now();
    workers[slot] = std::move(w);
    return true;
}

bool
Coordinator::feedWorker(std::size_t wi)
{
    WorkerProc &w = workers[wi];
    if (!w.alive || !w.writable || w.inflight)
        return false;

    // Drain the worker's job, then start the next job no worker has
    // started; once every job has started, take over the one with the
    // most cells left, so stragglers drain onto idle workers.
    if (!w.job || jobs[*w.job].empty()) {
        if (jobsStarted < jobs.size()) {
            w.job = jobsStarted++;
        } else {
            const auto most = std::max_element(
                jobs.begin(), jobs.end(), [](const auto &a, const auto &b) {
                    return a.size() < b.size();
                });
            if (most->empty())
                return false; // no work left anywhere
            w.job = static_cast<std::size_t>(most - jobs.begin());
            ++farm->jobsStolen;
        }
    }
    std::deque<std::size_t> &job = jobs[*w.job];
    const std::size_t lead = job.front();
    job.pop_front();

    const auto attempt_it = attempts.find(lead);
    const unsigned attempt =
        attempt_it == attempts.end() ? 0 : attempt_it->second;
    if (!report::writeFrame(
            w.jobFd, jobFrame(outcome.cells[lead], lead, attempt))) {
        // Peer is dead (EPIPE): put the cell back; the EOF on the read
        // side will finish the bookkeeping.
        job.push_front(lead);
        w.writable = false;
        return false;
    }
    w.inflight = lead;
    // The watchdog clock starts at job handoff: a worker that never
    // even heartbeats is just as wedged as one that stops mid-cell.
    w.lastActivity = std::chrono::steady_clock::now();
    return true;
}

void
Coordinator::handleFrame(std::size_t wi, const std::string &payload)
{
    WorkerProc &w = workers[wi];
    w.lastActivity = std::chrono::steady_clock::now();
    const auto doc = report::Json::parse(payload);
    // Typed frames first: anything with a "type" member is telemetry,
    // never a result. Result/error frames stay untyped (legacy shape).
    if (const report::Json *type = doc ? doc->find("type") : nullptr) {
        if (type->isString() && type->asString() == "progress") {
            // Heartbeat: the worker just picked up a cell. The frame
            // itself is the liveness signal; refresh the live line so
            // long cells still show a moving display.
            if (options.progress)
                printProgress();
        } else {
            warn("farm: dropping unknown frame type from worker %d",
                 static_cast<int>(w.pid));
        }
        return;
    }
    const report::Json *index_json = doc ? doc->find("index") : nullptr;
    if (!doc || !index_json || !index_json->isU64()) {
        warn("farm: dropping malformed frame from worker %d",
             static_cast<int>(w.pid));
        return;
    }
    const std::size_t lead =
        static_cast<std::size_t>(index_json->asU64());
    if (lead >= outcome.cells.size()) {
        warn("farm: result index %zu out of range", lead);
        return;
    }
    if (w.inflight && *w.inflight == lead)
        w.inflight.reset();

    if (const report::Json *err = doc->find("error")) {
        ++farm->failedCells;
        if (farm->error.empty() && err->isString())
            farm->error = "cell '" + outcome.cells[lead].key +
                          "' failed: " + err->asString();
        noteCellDone();
        return;
    }
    const report::Json *result_json = doc->find("result");
    SimResult result;
    if (!result_json || !fromJson(*result_json, result)) {
        warn("farm: unparseable result for cell %zu", lead);
        ++farm->failedCells;
        noteCellDone();
        return;
    }
    outcome.cells[lead].result = std::move(result);
    ++simulated;
    // Exact cells report whether they walked their prewarm or restored
    // it from the worker's blob of the previous cell's identity.
    if (const report::Json *prewarm = doc->find("prewarm");
        prewarm && prewarm->isString())
        ++(prewarm->asString() == "restore" ? prewarmRestores
                                            : prewarmWalks);
    const report::Json *stored = doc->find("stored");
    if (cache.enabled() && (!stored || !stored->isBool() ||
                            !stored->asBool()))
        ++failedStores;
    noteCellDone();
}

/** One grid cell retired (result, failure or quarantine): advance the
 * campaign and re-arm the crash-loop breaker — the farm made
 * progress, so respawning is paying off again. */
void
Coordinator::noteCellDone()
{
    ++cellsDone;
    respawnsSinceProgress = 0;
    if (options.progress)
        printProgress();
}

void
Coordinator::printProgress()
{
    using namespace std::chrono;
    const double elapsed =
        duration_cast<duration<double>>(steady_clock::now() - startedAt)
            .count();
    char eta[32];
    if (cellsDone > 0 && cellsDone < cellsTotal) {
        // Guarded by cellsDone > 0: before the first cell lands there
        // is no rate to extrapolate from, and elapsed/0 would print
        // garbage (inf/nan) on the live line.
        const double remaining =
            elapsed * static_cast<double>(cellsTotal - cellsDone) /
            static_cast<double>(cellsDone);
        const auto whole = static_cast<unsigned long long>(remaining);
        std::snprintf(eta, sizeof(eta), "ETA %llu:%02llu", whole / 60,
                      whole % 60);
    } else {
        std::snprintf(eta, sizeof(eta), "ETA --:--");
    }
    // \r + no newline: the line repaints in place on a terminal.
    std::fprintf(stderr,
                 "\rfarm: %llu/%llu cells, %llu stolen, %llu deaths, "
                 "%s   ",
                 static_cast<unsigned long long>(cellsDone),
                 static_cast<unsigned long long>(cellsTotal),
                 static_cast<unsigned long long>(farm->jobsStolen),
                 static_cast<unsigned long long>(farm->workerDeaths),
                 eta);
    std::fflush(stderr);
}

/** Per-slot respawn backoff: 100ms doubling per consumed process,
 * capped at 3.2s — fast enough that a blip costs almost nothing, slow
 * enough that a crash-looping slot cannot fork-bomb the host. */
std::chrono::milliseconds
respawnBackoff(unsigned respawn_count)
{
    const unsigned shift = std::min(respawn_count, 5u);
    return std::chrono::milliseconds(100u << shift);
}

void
Coordinator::workerGone(std::size_t wi)
{
    WorkerProc &w = workers[wi];
    if (!w.alive)
        return;
    w.alive = false;
    w.writable = false;
    ::close(w.jobFd);
    ::close(w.resFd);
    w.jobFd = w.resFd = -1;

    // This path is reached for workers that are *gone* (EOF) but also
    // for workers that are very much alive — the corrupt-stream case
    // and the hung-worker watchdog. A plain blocking waitpid() would
    // deadlock the whole farm on a live child, so: SIGKILL first
    // (harmless to a zombie), then reap without blocking. SIGKILL
    // cannot be caught, so the WNOHANG loop converges in practice
    // immediately; the deadline only guards against a child stuck in
    // uninterruptible I/O, where leaking a zombie beats hanging the
    // coordinator.
    ::kill(w.pid, SIGKILL);
    int status = 0;
    bool reaped = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (;;) {
        const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
        if (got == w.pid || (got < 0 && errno != EINTR)) {
            reaped = got == w.pid;
            break;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            warn("farm: worker %d unreapable after SIGKILL",
                 static_cast<int>(w.pid));
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool abnormal =
        !reaped || WIFSIGNALED(status) ||
        (WIFEXITED(status) && WEXITSTATUS(status) != 0);

    if (w.inflight) {
        // Mid-job death: the cell is lost from this worker but not
        // from the campaign. Requeue it while its retry budget lasts;
        // past the budget the cell has now killed maxRetries + 1
        // workers and is presumed poisoned — quarantine it so it
        // cannot murder the rest of the pool.
        const std::size_t lead = *w.inflight;
        w.inflight.reset();
        ++farm->workerDeaths;
        const unsigned attempt = ++attempts[lead];
        if (attempt > options.maxRetries) {
            farm->quarantinedCells.push_back(outcome.cells[lead].key);
            warn("farm: quarantining cell '%s' after %u worker deaths",
                 outcome.cells[lead].key.c_str(), attempt);
            noteCellDone();
        } else {
            jobs[*w.job].push_front(lead);
            ++farm->jobsRequeued;
        }
    } else if (abnormal) {
        ++farm->workerDeaths;
    }

    if (options.respawn) {
        w.respawnPending = true;
        w.respawnAt = std::chrono::steady_clock::now() +
                      respawnBackoff(w.respawnCount);
    }
}

/** Undone work that a fresh worker could pick up. */
bool
Coordinator::workAvailable() const
{
    for (const auto &job : jobs)
        if (!job.empty())
            return true;
    for (const WorkerProc &w : workers)
        if (w.alive && w.inflight)
            return true;
    return false;
}

std::uint64_t
Coordinator::respawnBudget() const
{
    // Crash-loop breaker: allow every slot a couple of fruitless
    // respawns, then conclude the failure is systemic (bad binary,
    // poisoned environment) and stop burning processes. Any completed
    // cell resets the counter via noteCellDone().
    return 2 * workers.size() + 4;
}

bool
Coordinator::respawnViable() const
{
    if (!options.respawn || respawnsSinceProgress >= respawnBudget())
        return false;
    for (const WorkerProc &w : workers)
        if (!w.alive && w.respawnPending)
            return true;
    return false;
}

/** Refill dead slots whose backoff has elapsed, while there is still
 * work a fresh worker could do. */
void
Coordinator::maybeRespawn()
{
    if (!options.respawn || !workAvailable())
        return;
    const auto now = std::chrono::steady_clock::now();
    for (WorkerProc &w : workers) {
        if (w.alive || !w.respawnPending || now < w.respawnAt)
            continue;
        if (respawnsSinceProgress >= respawnBudget()) {
            warn("farm: %llu respawns without progress — "
                 "giving up on respawning",
                 static_cast<unsigned long long>(
                     respawnsSinceProgress));
            for (WorkerProc &dead : workers)
                if (!dead.alive)
                    dead.respawnPending = false;
            return;
        }
        w.respawnPending = false;
        ++w.respawnCount;
        ++respawnsSinceProgress;
        // Respawns never re-arm the kill_after test hook: it models a
        // single operator kill -9, not a crash loop.
        if (spawnWorker(w.slot, 0)) {
            ++farm->workersRespawned;
            inform("farm: respawned worker slot %u (respawn %u)",
                   w.slot, workers[w.slot].respawnCount);
        } else {
            w.respawnPending = true;
            w.respawnAt = now + respawnBackoff(w.respawnCount);
        }
    }
}

/** SIGKILL alive workers whose in-flight cell has outlived the
 * --job-timeout watchdog; workerGone() then requeues or quarantines
 * the cell and schedules the slot for respawn. */
void
Coordinator::checkLiveness()
{
    if (!options.jobTimeoutSec)
        return;
    const auto now = std::chrono::steady_clock::now();
    const auto timeout = std::chrono::seconds(options.jobTimeoutSec);
    for (std::size_t wi = 0; wi < workers.size(); ++wi) {
        WorkerProc &w = workers[wi];
        if (!w.alive || !w.inflight || now - w.lastActivity < timeout)
            continue;
        warn("farm: worker %d hung on cell %zu for over %us — killing",
             static_cast<int>(w.pid), *w.inflight,
             options.jobTimeoutSec);
        ++farm->workersTimedOut;
        workerGone(wi);
    }
}

/** Next poll() deadline: the earliest watchdog expiry or pending
 * respawn, clamped to [20ms, 10s]. The clamp floor keeps a just-
 * expired deadline from busy-spinning; the ceiling keeps the
 * coordinator responsive even with nothing scheduled (satellite fix:
 * a pure timeout tick now runs the liveness check instead of being a
 * no-op). */
int
Coordinator::pollTimeoutMs() const
{
    using namespace std::chrono;
    const auto now = steady_clock::now();
    milliseconds next{10000};
    if (options.jobTimeoutSec) {
        const auto timeout = seconds(options.jobTimeoutSec);
        for (const WorkerProc &w : workers) {
            if (!w.alive || !w.inflight)
                continue;
            const auto due =
                duration_cast<milliseconds>(w.lastActivity + timeout -
                                            now);
            next = std::min(next, due);
        }
    }
    for (const WorkerProc &w : workers) {
        if (w.alive || !w.respawnPending)
            continue;
        next = std::min(
            next, duration_cast<milliseconds>(w.respawnAt - now));
    }
    return static_cast<int>(
        std::clamp<long long>(next.count(), 20, 10000));
}

void
Coordinator::run()
{
    startedAt = std::chrono::steady_clock::now();
    if (options.progress)
        printProgress();
    while (cellsDone < cellsTotal) {
        if (g_interrupted)
            break; // runFarm() kills, reaps and cleans up after us
        maybeRespawn();
        bool any_alive = false;
        for (std::size_t wi = 0; wi < workers.size(); ++wi) {
            if (workers[wi].alive) {
                any_alive = true;
                feedWorker(wi);
            }
        }
        if (!any_alive) {
            // Every process is dead, but a pending respawn may still
            // save the campaign: wait out the earliest backoff rather
            // than aborting a recoverable situation.
            if (respawnViable()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        std::min(pollTimeoutMs(), 100)));
                continue;
            }
            break;
        }

        std::vector<struct pollfd> fds;
        std::vector<std::size_t> owner;
        for (std::size_t wi = 0; wi < workers.size(); ++wi) {
            if (!workers[wi].alive)
                continue;
            fds.push_back({workers[wi].resFd, POLLIN, 0});
            owner.push_back(wi);
        }
        const int ready =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   pollTimeoutMs());
        if (ready < 0 && errno != EINTR)
            break;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                drainWorker(owner[i]);
        }
        // Runs on *every* wakeup — including a poll() that timed out
        // with no readable fds, which previously looped silently and
        // made the watchdog dead code.
        checkLiveness();
    }
    // Terminate the in-place line before normal stdout reporting.
    if (options.progress)
        std::fprintf(stderr, "\n");
}

void
Coordinator::drainWorker(std::size_t wi)
{
    WorkerProc &w = workers[wi];
    char chunk[65536];
    for (;;) {
        const ssize_t n = ::read(w.resFd, chunk, sizeof(chunk));
        if (n > 0) {
            w.buf.feed(chunk, static_cast<std::size_t>(n));
            while (auto frame = w.buf.pop())
                handleFrame(wi, *frame);
            if (w.buf.corrupt()) {
                warn("farm: corrupt result stream from worker %d",
                     static_cast<int>(w.pid));
                workerGone(wi);
                return;
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n < 0 && errno == EINTR)
            continue;
        // EOF or hard error: the worker is gone. Bytes of a torn
        // frame (pendingBytes) are simply dropped — the cell was
        // never landed, so the requeue/resume path re-simulates it.
        workerGone(wi);
        return;
    }
}

} // namespace

FarmOutcome
runFarm(const CampaignSpec &spec, const FarmOptions &options)
{
    FarmOutcome farm;
    const report::ResultCache cache(spec.cacheDir);
    CampaignPlan plan = planCampaign(spec, cache);
    // campaignJobs reads the plan's cells, so cut the jobs before they
    // move into the farm's outcome.
    unsigned nworkers = options.workers ? options.workers : usableCpus();
    const std::vector<std::vector<std::size_t>> jobs =
        campaignJobs(plan, nworkers);
    nworkers = std::min<unsigned>(nworkers,
                                  static_cast<unsigned>(jobs.size()));
    farm.campaign = std::move(plan.outcome);

    if (jobs.empty()) {
        // Everything was cached: nothing to spawn.
        fanOutDuplicates(farm.campaign, plan.pending);
        farm.completed = true;
        return farm;
    }

    std::string binary = options.workerBinary;
    if (binary.empty())
        binary = selfExePath();
    if (binary.empty()) {
        farm.error = "cannot resolve worker binary path";
        return farm;
    }

    // Arm the fault injector in the coordinator too: only the spawn
    // path ever sets a context here, so the sole coordinator-side
    // fault is SpawnFail — workers arm independently after exec.
    FaultInjector::global().armFromEnv();

    IgnoreSigpipe sigpipe_guard;
    InterruptGuard interrupt_guard;
    ProgressLineGuard progress_guard(options.progress);
    Coordinator coord{spec, options, farm.campaign, cache};
    coord.farm = &farm;
    coord.binary = binary;
    coord.cellsTotal = plan.leads.size();
    for (const std::vector<std::size_t> &job : jobs)
        coord.jobs.emplace_back(job.begin(), job.end());

    // Test hook: deterministically SIGKILL the first worker after N
    // cells, standing in for an operator's kill -9 mid-campaign.
    std::uint64_t kill_after = 0;
    if (const char *env = std::getenv("RATSIM_FARM_TEST_KILL_AFTER"))
        kill_after = parseU64(env, "RATSIM_FARM_TEST_KILL_AFTER");

    // Pre-size the slot table so worker slot N is always workers[N],
    // even when some initial spawns fail; failed slots become respawn
    // candidates instead of silently shrinking the pool.
    coord.workers.resize(nworkers);
    for (unsigned w = 0; w < nworkers; ++w)
        coord.workers[w].slot = w;
    unsigned spawned = 0;
    for (unsigned w = 0; w < nworkers; ++w) {
        if (coord.spawnWorker(w, w == 0 ? kill_after : 0)) {
            ++spawned;
        } else if (options.respawn) {
            coord.workers[w].respawnPending = true;
            coord.workers[w].respawnAt =
                std::chrono::steady_clock::now() + respawnBackoff(0);
        }
    }
    farm.workersSpawned = spawned;
    if (spawned == 0) {
        // Total spawn failure (fork exhaustion, unusable binary):
        // rather than giving up with zero results, degrade to the
        // in-process runner — slower, single-process, but it finishes
        // the campaign with the exact same bytes.
        warn("farm: could not spawn any worker — "
             "falling back to in-process execution");
        farm.inProcessFallback = true;
        farm.campaign = runCampaign(spec);
        farm.completed = true;
        return farm;
    }

    coord.run();

    const bool interrupted = g_interrupted != 0;
    if (interrupted) {
        // SIGINT/SIGTERM arrived mid-campaign: wind down instead of
        // dying with live children. Forward the termination to every
        // worker, reap each one (with escalation — an operator's
        // Ctrl-C must never hang behind a wedged child), and unlink
        // the temp cells the dead workers had in flight. Completed
        // cells are already durable in the cache, so a re-run resumes
        // from here; returning normally (rather than re-raising) lets
        // the cache DirLock and every other RAII guard release on the
        // way out.
        std::uint64_t tmps_removed = 0;
        unsigned terminated = 0;
        for (WorkerProc &w : coord.workers) {
            if (!w.alive)
                continue;
            ::close(w.jobFd);
            w.jobFd = -1;
            ::kill(w.pid, SIGTERM);
            ++terminated;
        }
        for (WorkerProc &w : coord.workers) {
            if (!w.alive)
                continue;
            int status = 0;
            bool escalated = false;
            const auto start = std::chrono::steady_clock::now();
            for (;;) {
                const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
                if (got == w.pid || (got < 0 && errno != EINTR))
                    break;
                const auto waited =
                    std::chrono::steady_clock::now() - start;
                if (waited > std::chrono::seconds(3)) {
                    warn("farm: worker %d unreapable on interrupt",
                         static_cast<int>(w.pid));
                    break;
                }
                if (!escalated && waited > std::chrono::seconds(1)) {
                    ::kill(w.pid, SIGKILL);
                    escalated = true;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
            ::close(w.resFd);
            w.resFd = -1;
            w.alive = false;
            ++farm.workerDeaths;
            if (cache.enabled())
                tmps_removed += cache.removeTmpFilesOfPid(w.pid);
        }
        farm.error = "interrupted; completed cells are in the result "
                     "cache — re-run to resume";
        inform("farm: interrupted — %u worker(s) terminated, "
               "%llu in-flight temp file(s) removed",
               terminated,
               static_cast<unsigned long long>(tmps_removed));
    } else {
        // Retire the pool: close job pipes (workers exit on EOF) and
        // reap.
        for (std::size_t wi = 0; wi < coord.workers.size(); ++wi) {
            WorkerProc &w = coord.workers[wi];
            if (!w.alive)
                continue;
            ::close(w.jobFd);
            w.jobFd = -1;
            // Collect any result frames still in flight before reaping.
            ::fcntl(w.resFd, F_SETFL, 0); // blocking for the tail
            report::FrameReader tail(w.resFd);
            while (auto frame = tail.next())
                coord.handleFrame(wi, *frame);
            ::close(w.resFd);
            w.resFd = -1;
            int status = 0;
            ::waitpid(w.pid, &status, 0);
            w.alive = false;
            // A worker that died before its EOF was seen in the run
            // loop (e.g. the grid finished first) still counts as a
            // death.
            if (WIFSIGNALED(status) ||
                (WIFEXITED(status) && WEXITSTATUS(status) != 0))
                ++farm.workerDeaths;
        }
    }

    farm.campaign.simulated = coord.simulated;
    farm.campaign.failedStores = coord.failedStores;
    farm.campaign.prewarmWalks = coord.prewarmWalks;
    farm.campaign.prewarmRestores = coord.prewarmRestores;
    farm.completed = coord.cellsDone >= coord.cellsTotal &&
                     farm.failedCells == 0 &&
                     farm.quarantinedCells.empty();
    if (!farm.completed && farm.error.empty()) {
        if (!farm.quarantinedCells.empty())
            farm.error =
                std::to_string(farm.quarantinedCells.size()) +
                " cell(s) quarantined after exhausting their retry "
                "budget (first: '" +
                farm.quarantinedCells.front() +
                "'); every other cell is in the result cache";
        else
            farm.error = "all workers died before the grid finished; "
                         "completed cells are in the result cache — "
                         "re-run to resume";
    }
    fanOutDuplicates(farm.campaign, plan.pending);
    return farm;
}

int
farmWorkerMain(const std::string &cache_dir, unsigned worker_id,
               std::uint64_t kill_after)
{
    // Frames go to a private dup of stdout; stdout itself is pointed
    // at stderr so any stray printf cannot corrupt the frame stream.
    const int result_fd = ::dup(STDOUT_FILENO);
    if (result_fd < 0)
        return 1;
    ::dup2(STDERR_FILENO, STDOUT_FILENO);

    // Attribute interleaved worker stderr, and honour the verbosity
    // the operator set on the coordinator (env survives fork/exec).
    setLogPrefix("[w" + std::to_string(worker_id) + "] ");
    setLogLevelFromEnv();
    inform("worker %u up (pid %d)", worker_id,
           static_cast<int>(::getpid()));

    // Chaos harness: RATSIM_FAULT (inherited across fork/exec) arms
    // deterministic fault injection for this worker's job loop, its
    // frame writes and its cache stores.
    auto &injector = FaultInjector::global();
    if (injector.armFromEnv())
        inform("fault schedule armed: %s",
               injector.schedule().spec.c_str());

    const report::ResultCache cache(cache_dir);
    report::FrameReader job_stream(STDIN_FILENO);
    std::uint64_t completed = 0;
    // Post-prewarm state of the last identity this worker walked. The
    // coordinator hands out campaignJobs, each of one identity, so the
    // cells after a walk restore it.
    PrewarmCheckpoint ckpt;

    while (auto frame = job_stream.next()) {
        // Test hook: die like kill -9 *between* receiving a job and
        // simulating it, so the coordinator observes a worker with an
        // in-flight job — the deterministic worst case for requeue.
        if (kill_after > 0 && completed >= kill_after)
            ::raise(SIGKILL);
        const auto doc = report::Json::parse(*frame);
        if (!doc || !doc->isObject()) {
            warn("farm worker: malformed job frame");
            return 1;
        }
        const report::Json *index = doc->find("index");
        const report::Json *key = doc->find("key");
        const report::Json *config_json = doc->find("config");
        const report::Json *programs_json = doc->find("programs");
        if (!index || !index->isU64() || !key || !key->isString() ||
            !config_json || !programs_json ||
            !programs_json->isArray()) {
            warn("farm worker: job frame missing fields");
            return 1;
        }
        const report::Json *attempt_json = doc->find("attempt");
        const std::uint64_t attempt =
            attempt_json && attempt_json->isU64() ? attempt_json->asU64()
                                                  : 0;

        // Fault context for this job: every injection decision below
        // (frame writes, the kill/hang/slow points, the cache store)
        // hashes against (cell index, attempt), so retries of a cell
        // redraw their faults instead of failing identically forever.
        injector.setContext(index->asU64(), attempt);

        // Typed progress frame before the (long) simulation: tells the
        // coordinator which cell this worker is busy on and doubles as
        // a liveness heartbeat. Older-style result frames carry no
        // "type" member, so the dispatch stays backward compatible.
        report::Json progress = report::Json::object();
        progress["type"] = report::Json("progress");
        progress["worker"] = report::Json(std::uint64_t{worker_id});
        progress["index"] = report::Json(index->asU64());
        if (!report::writeFrame(result_fd, progress.dump()))
            return 1; // coordinator went away

        // Lethal / latency faults, after the heartbeat so the
        // coordinator knows which cell is held. Kill models a crash
        // (the original kill_after semantics, made probabilistic);
        // hang models a wedge only the --job-timeout watchdog can
        // clear; slow models contention without being lethal.
        if (injector.fire(FaultKind::Kill))
            ::raise(SIGKILL);
        if (injector.fire(FaultKind::Hang))
            for (;;)
                ::pause();
        if (injector.fire(FaultKind::Slow))
            std::this_thread::sleep_for(injector.slowDelay());

        report::Json reply = report::Json::object();
        reply["index"] = report::Json(index->asU64());

        SimConfig config;
        std::vector<std::string> programs;
        bool ok = fromJson(*config_json, config);
        for (std::size_t i = 0; ok && i < programs_json->size(); ++i) {
            const report::Json &p = programs_json->at(i);
            ok = p.isString();
            if (ok)
                programs.push_back(p.asString());
        }
        if (!ok) {
            reply["error"] = report::Json("undecodable job config");
        } else {
            try {
                // Sampled cells restore their shared checkpoints from
                // the cache-adjacent directory; exact cells restore the
                // blob of their prewarm identity, or walk and keep it.
                SimResult result;
                if (config.sampled) {
                    result = simulateCell(config, programs,
                                          checkpointDirFor(cache_dir));
                } else {
                    bool restored = false;
                    result = restoreOrWalk(config, programs, ckpt, restored);
                    reply["prewarm"] =
                        report::Json(restored ? "restore" : "walk");
                }
                if (cache.enabled())
                    reply["stored"] = report::Json(
                        cache.store(key->asString(), result));
                reply["result"] = report::toJson(result);
            } catch (const std::exception &e) {
                reply["error"] = report::Json(std::string(e.what()));
            }
        }
        if (!report::writeFrame(result_fd, reply.dump()))
            return 1; // coordinator went away
        injector.clearContext();
        ++completed;
    }
    return job_stream.truncated() ? 1 : 0;
}

} // namespace rat::sim
