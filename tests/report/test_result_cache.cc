/**
 * @file
 * ResultCache crash-safety tests: the failure paths a multi-process
 * farm hits in steady state. A cell file must either hold a complete,
 * key-verified write or not exist; nothing here may ever surface a
 * torn cell as a valid result.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "report/result_cache.hh"
#include "report/serialize.hh"

namespace rat::report {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;

    explicit TempDir(const char *name)
        : path(fs::path(testing::TempDir()) / name)
    {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

sim::SimResult
sampleResult(const char *program, double ipc)
{
    sim::SimResult r;
    r.cycles = 4242;
    sim::ThreadResult t;
    t.program = program;
    t.ipc = ipc;
    r.threads.push_back(t);
    return r;
}

std::string
sampleKey(std::uint64_t seed)
{
    sim::SimConfig cfg;
    cfg.seed = seed;
    return ResultCache::keyFor(cfg, {"art", "mcf"});
}

TEST(ResultCacheFailure, SuccessfulStoreReturnsTrueAndLeavesNoTmp)
{
    TempDir dir("rc_store_ok");
    const ResultCache cache(dir.path.string());
    EXPECT_TRUE(cache.store(sampleKey(1), sampleResult("art", 0.5)));
    EXPECT_EQ(cache.storeFailures(), 0u);

    std::size_t cells = 0, tmps = 0;
    for (const auto &e : fs::directory_iterator(dir.path)) {
        if (e.path().extension() == ".tmp")
            ++tmps;
        else
            ++cells;
    }
    EXPECT_EQ(cells, 1u);
    EXPECT_EQ(tmps, 0u); // renamed, not lingering
}

TEST(ResultCacheFailure, TruncatedCellFileIsQuarantinedNotACrash)
{
    TempDir dir("rc_truncated");
    const ResultCache cache(dir.path.string());
    const std::string key = sampleKey(2);
    ASSERT_TRUE(cache.store(key, sampleResult("art", 0.5)));
    ASSERT_TRUE(cache.load(key));

    // Chop the tail off the stored cell — the short-write shape a
    // crashed writer without stream checking used to publish. The
    // load must miss AND move the damage aside (quarantine) so it is
    // paid for exactly once.
    const fs::path cell = dir.path / ResultCache::fileNameFor(key);
    const auto size = fs::file_size(cell);
    fs::resize_file(cell, size / 2);
    EXPECT_FALSE(cache.load(key));
    EXPECT_EQ(cache.quarantined(), 1u);
    EXPECT_FALSE(fs::exists(cell));
    EXPECT_TRUE(fs::exists(cell.string() + ".bad"));

    // Zero-byte cell (open() succeeded, nothing was flushed).
    std::ofstream(cell).flush();
    EXPECT_FALSE(cache.load(key));
    EXPECT_EQ(cache.quarantined(), 2u);
}

TEST(ResultCacheFailure, DeeplyNestedCellIsQuarantinedNotACrash)
{
    // 100,000 '[' used to overflow the parser's stack: every later run
    // over the cache died with SIGSEGV. Now the parse fails, the cell
    // is moved aside, and the next store heals the slot.
    TempDir dir("rc_deep");
    const ResultCache cache(dir.path.string());
    const std::string key = sampleKey(5);
    ASSERT_TRUE(cache.store(key, sampleResult("art", 0.5)));

    const fs::path cell = dir.path / ResultCache::fileNameFor(key);
    std::ofstream(cell, std::ios::trunc) << std::string(100000, '[');
    EXPECT_FALSE(cache.load(key));
    EXPECT_EQ(cache.quarantined(), 1u);
    EXPECT_FALSE(fs::exists(cell));
    EXPECT_TRUE(fs::exists(cell.string() + ".bad"));

    ASSERT_TRUE(cache.store(key, sampleResult("art", 0.5)));
    const auto healed = cache.load(key);
    ASSERT_TRUE(healed);
    EXPECT_EQ(healed->threads.at(0).ipc, 0.5);
}

TEST(ResultCacheFailure, KeyCollisionMismatchIsAMiss)
{
    TempDir dir("rc_collision");
    const ResultCache cache(dir.path.string());
    const std::string key_a = sampleKey(3);
    const std::string key_b = sampleKey(4);
    ASSERT_TRUE(cache.store(key_a, sampleResult("art", 0.5)));

    // Simulate FNV collision: key_b's file name holds key_a's cell.
    // A *valid* cell for the wrong key is a miss, never a quarantine
    // candidate — it may be somebody else's good data.
    fs::copy_file(dir.path / ResultCache::fileNameFor(key_a),
                  dir.path / ResultCache::fileNameFor(key_b));
    EXPECT_FALSE(cache.load(key_b));
    EXPECT_TRUE(cache.load(key_a)); // the real cell still hits
    EXPECT_EQ(cache.quarantined(), 0u);
    EXPECT_TRUE(fs::exists(dir.path / ResultCache::fileNameFor(key_b)));
}

TEST(ResultCacheFailure, UnwritableCacheDirFailsStoreWithoutGarbage)
{
    // Parent path is a regular *file*, so the cache directory can
    // never be created: every store must fail cleanly.
    TempDir dir("rc_unwritable");
    fs::create_directories(dir.path);
    std::ofstream(dir.path / "blocker") << "x";
    const ResultCache cache((dir.path / "blocker" / "cache").string());

    EXPECT_FALSE(cache.store(sampleKey(5), sampleResult("art", 0.5)));
    EXPECT_EQ(cache.storeFailures(), 1u);
    EXPECT_FALSE(cache.load(sampleKey(5)));
}

TEST(ResultCacheFailure, ConcurrentSameKeyStoresFromThreadsStayWhole)
{
    // Two same-pid threads storing the same key used to share one tmp
    // path and interleave writes; the sequence-unique tmp names make
    // every published cell one writer's complete bytes.
    TempDir dir("rc_threads");
    const ResultCache cache(dir.path.string());
    const std::string key = sampleKey(6);
    const sim::SimResult a = sampleResult("art", 0.25);
    const sim::SimResult b = sampleResult("art", 0.75);

    for (int round = 0; round < 16; ++round) {
        std::thread ta([&] { cache.store(key, a); });
        std::thread tb([&] { cache.store(key, b); });
        ta.join();
        tb.join();
        const auto hit = cache.load(key);
        ASSERT_TRUE(hit) << "round " << round
                         << ": published cell unreadable";
        const double ipc = hit->threads.at(0).ipc;
        EXPECT_TRUE(ipc == 0.25 || ipc == 0.75) << ipc;
    }
    EXPECT_EQ(cache.storeFailures(), 0u);
}

TEST(ResultCacheFailure, ConcurrentTwoProcessStoreOnSameKey)
{
    // The farm's steady state: two worker *processes* land the same
    // key in one shared directory. Whatever the interleaving, the
    // published cell must parse and carry one of the two payloads.
    TempDir dir("rc_processes");
    const std::string cache_dir = dir.path.string();
    const std::string key = sampleKey(7);

    std::vector<pid_t> kids;
    for (int child = 0; child < 2; ++child) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            const ResultCache mine(cache_dir);
            const auto payload =
                sampleResult("art", child == 0 ? 0.25 : 0.75);
            bool ok = true;
            for (int i = 0; i < 32; ++i)
                ok = mine.store(key, payload) && ok;
            _exit(ok ? 0 : 1);
        }
        kids.push_back(pid);
    }
    for (const pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    const ResultCache cache(cache_dir);
    const auto hit = cache.load(key);
    ASSERT_TRUE(hit);
    const double ipc = hit->threads.at(0).ipc;
    EXPECT_TRUE(ipc == 0.25 || ipc == 0.75) << ipc;

    // No temp litter once both writers exited cleanly.
    for (const auto &e : fs::directory_iterator(dir.path))
        EXPECT_NE(e.path().extension(), ".tmp") << e.path();
}

TEST(ResultCacheFailure, StaleTmpFilesAreReapedOnOpenFreshOnesKept)
{
    TempDir dir("rc_gc");
    fs::create_directories(dir.path);

    // A tmp orphaned by a kill -9 long ago...
    const fs::path stale = dir.path / "deadbeef.json.999.0.tmp";
    std::ofstream(stale) << "{ torn";
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(2));
    // ...and one a live writer created moments ago.
    const fs::path fresh = dir.path / "cafef00d.json.998.0.tmp";
    std::ofstream(fresh) << "{ in-flight";

    const ResultCache cache(dir.path.string());
    EXPECT_EQ(cache.reapedTmpFiles(), 1u);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(fresh)); // age-gated: never reap the living

    // Real cells are never GC candidates.
    const std::string key = sampleKey(8);
    ASSERT_TRUE(cache.store(key, sampleResult("art", 0.5)));
    const ResultCache reopened(dir.path.string());
    EXPECT_TRUE(reopened.load(key));
}

TEST(ResultCacheFailure, AgedOutBadFilesAreReapedFreshOnesKept)
{
    TempDir dir("rc_gc_bad");
    fs::create_directories(dir.path);

    // A quarantined cell whose post-mortem window has long passed...
    const fs::path stale = dir.path / "deadbeef.json.bad";
    std::ofstream(stale) << "{ rotted";
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(2));
    // ...and one quarantined moments ago, still worth inspecting.
    const fs::path fresh = dir.path / "cafef00d.json.bad";
    std::ofstream(fresh) << "{ rotted";

    const ResultCache cache(dir.path.string());
    EXPECT_EQ(cache.reapedBadFiles(), 1u);
    EXPECT_EQ(cache.reapedTmpFiles(), 0u);
    EXPECT_EQ(cache.stats().reapedBadFiles, 1u);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(fresh));
}

TEST(ResultCacheFailure, TmpFilesOfADeadPidAreRemovedRegardlessOfAge)
{
    TempDir dir("rc_pid_tmp");
    fs::create_directories(dir.path);

    // Fresh temps of the dead worker (pid 999)...
    const fs::path mine1 = dir.path / "deadbeef.json.999.0.tmp";
    const fs::path mine2 = dir.path / "cafef00d.json.999.7.tmp";
    // ...a live sibling's temp, and a seq field that happens to equal
    // the dead pid (must NOT match: the pid field is position-exact).
    const fs::path other = dir.path / "deadbeef.json.998.1.tmp";
    const fs::path decoy = dir.path / "deadbeef.json.998.999.tmp";
    for (const fs::path &p : {mine1, mine2, other, decoy})
        std::ofstream(p) << "{ in-flight";

    const ResultCache cache(dir.path.string());
    EXPECT_EQ(cache.removeTmpFilesOfPid(999), 2u);
    EXPECT_FALSE(fs::exists(mine1));
    EXPECT_FALSE(fs::exists(mine2));
    EXPECT_TRUE(fs::exists(other));
    EXPECT_TRUE(fs::exists(decoy));
}

TEST(ResultCache, StaleCheckpointTempsAreReapedOnOpen)
{
    // Sampled checkpoints land in <cache>/ckpt/ through temps of the
    // same <name>.<pid>.<seq>.tmp shape as the cells'.
    TempDir dir("rc_gc_ckpt");
    const fs::path ckpt = dir.path / "ckpt";
    fs::create_directories(ckpt);
    const fs::path stale = ckpt / "0123456789abcdef.ratck3.777.1.tmp";
    std::ofstream(stale) << "torn blob";
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::minutes(11));
    const fs::path fresh = ckpt / "fedcba9876543210.ratck3.778.0.tmp";
    std::ofstream(fresh) << "in-flight blob";

    const ResultCache cache(dir.path.string());
    EXPECT_EQ(cache.reapedTmpFiles(), 1u);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(fresh));
}

TEST(ResultCache, TmpFilesOfADeadPidAreRemovedFromTheCheckpointDir)
{
    TempDir dir("rc_pid_ckpt");
    const fs::path ckpt = dir.path / "ckpt";
    fs::create_directories(ckpt);
    const fs::path cell = dir.path / "deadbeef.json.777.0.tmp";
    const fs::path blob = ckpt / "0123456789abcdef.ratck3.777.1.tmp";
    // Another writer's temp whose seq field equals the dead pid.
    const fs::path decoy = ckpt / "0123456789abcdef.ratck3.778.777.tmp";
    for (const fs::path &p : {cell, blob, decoy})
        std::ofstream(p) << "in-flight";

    const ResultCache cache(dir.path.string());
    EXPECT_EQ(cache.removeTmpFilesOfPid(777), 2u);
    EXPECT_FALSE(fs::exists(cell));
    EXPECT_FALSE(fs::exists(blob));
    EXPECT_TRUE(fs::exists(decoy));
}

TEST(ResultCacheChecksum, BitRotInsideTheResultIsCaughtAndQuarantined)
{
    // Flip one digit of a numeric field inside the stored result:
    // the cell still parses, the key still matches — only the FNV-1a
    // payload checksum can catch it.
    TempDir dir("rc_bitrot");
    const ResultCache cache(dir.path.string());
    const std::string key = sampleKey(20);
    ASSERT_TRUE(cache.store(key, sampleResult("art", 0.5)));

    const fs::path cell = dir.path / ResultCache::fileNameFor(key);
    std::string text;
    {
        std::ifstream in(cell);
        std::ostringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    // The sample result has cycles = 4242; rot it to 4243 in place.
    const auto pos = text.rfind("4242");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 4, "4243");
    std::ofstream(cell, std::ios::trunc) << text;

    EXPECT_FALSE(cache.load(key));
    EXPECT_EQ(cache.quarantined(), 1u);
    EXPECT_TRUE(fs::exists(cell.string() + ".bad"));
    EXPECT_FALSE(fs::exists(cell));
}

TEST(ResultCacheChecksum, MissingChecksumFieldIsQuarantined)
{
    // A hand-built cell with a valid key and result but no checksum
    // member (the v1 shape smuggled under a v2 name) must not load.
    TempDir dir("rc_nochecksum");
    const ResultCache cache(dir.path.string());
    const std::string key = sampleKey(21);

    Json cell = Json::object();
    cell["key"] = Json(key);
    cell["result"] = toJson(sampleResult("art", 0.5));
    fs::create_directories(dir.path);
    std::ofstream(dir.path / ResultCache::fileNameFor(key))
        << cell.dump(2);

    EXPECT_FALSE(cache.load(key));
    EXPECT_EQ(cache.quarantined(), 1u);
}

TEST(ResultCacheChecksum, QuarantinedCellHealsOnTheNextStore)
{
    // The self-healing cycle: damage -> quarantined miss -> caller
    // re-simulates -> store -> clean hit; the .bad corpse stays for
    // post-mortem but is invisible to lookups.
    TempDir dir("rc_heal");
    const ResultCache cache(dir.path.string());
    const std::string key = sampleKey(22);
    ASSERT_TRUE(cache.store(key, sampleResult("art", 0.5)));

    const fs::path cell = dir.path / ResultCache::fileNameFor(key);
    std::ofstream(cell, std::ios::trunc) << "not even json";
    EXPECT_FALSE(cache.load(key));
    EXPECT_EQ(cache.quarantined(), 1u);

    ASSERT_TRUE(cache.store(key, sampleResult("art", 0.5)));
    const auto healed = cache.load(key);
    ASSERT_TRUE(healed);
    EXPECT_EQ(healed->threads.at(0).ipc, 0.5);
    EXPECT_EQ(cache.quarantined(), 1u); // no new quarantine
    EXPECT_TRUE(fs::exists(cell.string() + ".bad"));
}

TEST(ResultCacheChecksum, StoredCellsRoundTripThroughTheChecksum)
{
    // The checksum is computed over the compact re-dump of the parsed
    // result, so it only works if dump(parse(dump(x))) is stable —
    // exercised here across integer and floating payload fields.
    TempDir dir("rc_roundtrip");
    const ResultCache cache(dir.path.string());
    for (std::uint64_t i = 0; i < 16; ++i) {
        const std::string key = sampleKey(100 + i);
        ASSERT_TRUE(cache.store(
            key, sampleResult("art", 0.1 + 0.037 * static_cast<double>(i))));
        EXPECT_TRUE(cache.load(key)) << "cell " << i;
    }
    EXPECT_EQ(cache.quarantined(), 0u);
    EXPECT_EQ(cache.stats().hits, 16u);
    EXPECT_EQ(cache.stats().quarantined, 0u);
}

} // namespace
} // namespace rat::report
