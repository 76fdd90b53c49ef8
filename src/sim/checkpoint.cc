/**
 * @file
 * Checkpoint codec implementation. See checkpoint.hh for the format
 * and the drift-proofing contract.
 */

#include "sim/checkpoint.hh"

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "check/digest.hh"
#include "check/fnv.hh"
#include "common/logging.hh"
#include "core/smt_core.hh"
#include "mem/hierarchy.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

constexpr std::size_t kMagicLen = sizeof(CheckpointCodec::kMagic) - 1;

/**
 * Encode-side IO: appends every visited value as 8 little-endian bytes
 * (matching the digest subsystem's byte discipline — independent of
 * struct padding and host endianness).
 */
struct CkptWriter {
    std::string out;
    bool ok = true;

    void
    raw64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }

    void size(std::size_t n) { raw64(n); }

    template <typename T>
    void
    scalar(T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            raw64(v ? 1 : 0);
        } else {
            // Cast through the unsigned counterpart so negative values
            // round-trip portably (no implementation-defined narrowing).
            using U = std::make_unsigned_t<T>;
            raw64(static_cast<std::uint64_t>(static_cast<U>(v)));
        }
    }

    /** Count, then elements in ascending order: equal sets, equal bytes. */
    void
    sortedSet(std::unordered_set<InstSeq> &set)
    {
        std::vector<InstSeq> sorted(set.begin(), set.end());
        std::sort(sorted.begin(), sorted.end());
        raw64(sorted.size());
        for (InstSeq seq : sorted)
            raw64(seq);
    }

    void fail() { ok = false; }
};

/**
 * Decode-side IO: the exact mirror of CkptWriter. Any structural
 * mismatch — truncation, a size() marker that disagrees with the
 * target's geometry, an explicit fail() — clears `ok`; subsequent
 * reads are no-ops so the caller checks once at the end.
 */
struct CkptReader {
    const std::string &in;
    std::size_t pos = 0;
    bool ok = true;

    bool
    raw64(std::uint64_t &v)
    {
        v = 0;
        if (!ok || pos + 8 > in.size()) {
            ok = false;
            return false;
        }
        for (unsigned i = 0; i < 8; ++i)
            v |= std::uint64_t(std::uint8_t(in[pos + i])) << (8 * i);
        pos += 8;
        return true;
    }

    void
    size(std::size_t n)
    {
        std::uint64_t v;
        if (raw64(v) && v != n)
            ok = false;
    }

    template <typename T>
    void
    scalar(T &v)
    {
        std::uint64_t raw;
        if (!raw64(raw))
            return;
        if constexpr (std::is_same_v<T, bool>) {
            v = raw != 0;
        } else {
            using U = std::make_unsigned_t<T>;
            v = static_cast<T>(static_cast<U>(raw));
        }
    }

    /**
     * Every element takes 8 bytes, so a count the rest of the blob
     * cannot hold is refused before anything is allocated for it.
     */
    void
    sortedSet(std::unordered_set<InstSeq> &set)
    {
        std::uint64_t n;
        if (!raw64(n))
            return;
        if (n > (in.size() - pos) / 8) {
            ok = false;
            return;
        }
        set.clear();
        for (std::uint64_t seq = 0; n > 0 && raw64(seq); --n)
            set.insert(seq);
    }

    void fail() { ok = false; }
};

} // namespace

template <typename IO>
void
CheckpointCodec::visit(IO &io, core::SmtCore &core, mem::MemoryHierarchy &mem)
{
    io.scalar(core.cycle_);
    io.scalar(core.prewarmedInsts_);
    io.size(core.threads_.size());
    for (auto &t : core.threads_) {
        io.scalar(t.nextSeq);
        t.ras.ckptVisit(io);
    }
    core.predictor_.ckptVisit(io);
    core.btb_.ckptVisit(io);
    mem.l1i().ckptVisit(io);
    mem.l1d().ckptVisit(io);
    mem.l2().ckptVisit(io);
    core.raEngine_.ckptVisit(io);
}

namespace {

/**
 * True when @p core / @p mem hold no transient pipeline state — the
 * precondition for a checkpoint to be restorable into a simulator with
 * a different policy / ROB / IQ configuration.
 */
bool
pipelineEmpty(const core::SmtCore &core, const mem::MemoryHierarchy &mem)
{
    for (ThreadId tid = 0; tid < core.numThreads(); ++tid) {
        if (core.icount(tid) != 0 || core.robOccupancy(tid) != 0 ||
            core.lsqOccupancy(tid) != 0 || core.inRunahead(tid)) {
            return false;
        }
    }
    const Cycle now = core.cycle();
    return mem.l1iMshrs().occupancy(now) == 0 &&
           mem.l1dMshrs().occupancy(now) == 0 &&
           mem.l2Mshrs().occupancy(now) == 0;
}

} // namespace

std::string
CheckpointCodec::encode(Simulator &sim)
{
    core::SmtCore &core = sim.smtCore();
    mem::MemoryHierarchy &mem = sim.memory();
    if (!pipelineEmpty(core, mem))
        return {};

    CkptWriter w;
    w.out.assign(kMagic, kMagicLen);
    visit(w, core, mem);
    w.raw64(check::StateHasher::digest(core));
    if (!w.ok)
        return {};
    return std::move(w.out);
}

bool
CheckpointCodec::restore(Simulator &sim, const std::string &blob,
                         std::string *error)
{
    const auto fail = [error](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    if (blob.size() < kMagicLen || blob.compare(0, kMagicLen, kMagic) != 0)
        return fail("not a checkpoint of this format");

    core::SmtCore &core = sim.smtCore();
    CkptReader r{blob, kMagicLen};
    visit(r, core, sim.memory());
    std::uint64_t want = 0;
    r.raw64(want);
    if (!r.ok)
        return fail("truncated or geometry-mismatched checkpoint");
    if (r.pos != blob.size())
        return fail("trailing bytes after checkpoint");

    // The drift guard: the restored target must hash to exactly the
    // digest the source hashed to at encode time. Any state the digest
    // covers but the checkpoint does not (or vice versa) fails here.
    if (check::StateHasher::digest(core) != want)
        return fail("state digest mismatch after restore");
    return true;
}

std::uint64_t
CheckpointCodec::fileKey(const SimConfig &cfg,
                         const std::vector<std::string> &programs,
                         InstSeq position)
{
    // The magic's bytes, big-endian, as the format discriminator: a
    // blob of another layout is never looked up under this key.
    std::uint64_t format = 0;
    for (std::size_t i = 0; i < kMagicLen; ++i)
        format = format << 8 | static_cast<unsigned char>(kMagic[i]);
    check::Fnv64 h;
    h.u64(format);
    h.u64(position);
    h.u64(cfg.seed);
    h.u64(programs.size());
    for (const std::string &p : programs) {
        h.u64(p.size());
        for (char c : p)
            h.u64(static_cast<unsigned char>(c));
    }
    h.u64(cfg.core.predictor.tableEntries);
    h.u64(cfg.core.predictor.historyBits);
    h.u64(static_cast<std::uint64_t>(cfg.core.predictor.weightLimit));
    // The restore-time digest covers register-file free counts, so a
    // checkpoint is only digest-compatible with its own file sizes.
    h.u64(cfg.core.intRegs);
    h.u64(cfg.core.fpRegs);
    const auto foldCache = [&h](const mem::CacheConfig &c) {
        h.u64(c.sizeBytes);
        h.u64(c.ways);
        h.u64(c.lineBytes);
        h.u64(c.latency);
        h.u64(c.mshrs);
    };
    foldCache(cfg.mem.l1i);
    foldCache(cfg.mem.l1d);
    foldCache(cfg.mem.l2);
    h.u64(cfg.mem.memLatency);
    return h.value();
}

std::uint64_t
prewarmIdentity(const SimConfig &cfg,
                const std::vector<std::string> &programs)
{
    return CheckpointCodec::fileKey(cfg, programs, cfg.prewarmInsts);
}

SimResult
restoreOrWalk(const SimConfig &cfg, const std::vector<std::string> &programs,
              PrewarmCheckpoint &ckpt, bool &restored)
{
    // Either way the Simulator's own run() must not walk again: the
    // state comes from the blob or from the walk below.
    SimConfig noWalk = cfg;
    noWalk.prewarmInsts = 0;
    // The digest check cannot tell one workload's walk from another's
    // with the same geometry; the identity does.
    const std::uint64_t identity = prewarmIdentity(cfg, programs);
    if (!ckpt.blob.empty() && ckpt.identity == identity) {
        Simulator sim(noWalk, programs);
        std::string error;
        if (CheckpointCodec::restore(sim, ckpt.blob, &error)) {
            restored = true;
            return sim.run();
        }
        warn("checkpoint restore failed (%s); falling back to a fresh "
             "functional walk",
             error.c_str());
    }
    restored = false;
    Simulator sim(noWalk, programs);
    sim.smtCore().prewarm(cfg.prewarmInsts);
    ckpt.identity = identity;
    ckpt.blob = CheckpointCodec::encode(sim);
    return sim.run();
}

} // namespace rat::sim
