/** @file Unit and property tests for the synthetic trace generator. */

#include <atomic>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/fnv.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace rat::trace {
namespace {

constexpr Addr kBase = Addr{1} << 40;

/** Fold every field of @p op into @p h. */
void
hashOp(check::Fnv64 &h, const MicroOp &op)
{
    h.u64(op.seq);
    h.u64(op.pc);
    h.u64(static_cast<std::uint64_t>(op.op));
    h.u64(op.srcInt[0]);
    h.u64(op.srcInt[1]);
    h.u64(op.numSrcInt);
    h.u64(op.srcFp[0]);
    h.u64(op.srcFp[1]);
    h.u64(op.numSrcFp);
    h.u64(op.dst);
    h.b(op.hasDst);
    h.b(op.dstIsFp);
    h.u64(op.effAddr);
    h.u64(op.memSize);
    h.b(op.taken);
    h.u64(op.target);
}

/**
 * FNV-1a of the stream over [0, 70000) (four phases, many chase
 * periods) and two windows of 64-bit dividends past 2^32 and at 2^40.
 */
std::uint64_t
streamDigest(const TraceGenerator &gen)
{
    const std::pair<InstSeq, InstSeq> ranges[] = {
        {0, 70000},
        {(InstSeq{1} << 32) - 500, (InstSeq{1} << 32) + 500},
        {InstSeq{1} << 40, (InstSeq{1} << 40) + 1000},
    };
    check::Fnv64 h;
    for (const auto &[lo, hi] : ranges) {
        for (InstSeq i = lo; i < hi; ++i)
            hashOp(h, gen.at(i));
    }
    return h.value();
}

struct StreamPin {
    const char *program;
    std::uint64_t seed1; ///< digest at stream seed 1
    std::uint64_t seed7; ///< digest at stream seed 7
};

/**
 * Pinned digests. A change to at() that moves one changes every
 * simulation of that program; re-capture only on purpose.
 */
constexpr StreamPin kStreamPins[] = {
    {"ammp", 0x782c61e685b27ae7ULL, 0x36369c2c1ff88d12ULL},
    {"applu", 0xcbee39cfcb8c9ac1ULL, 0x1f83a12a3bb44508ULL},
    {"apsi", 0x3c59874dfbd168aeULL, 0x54d5e482e09b750aULL},
    {"art", 0xcb2e88cc53d25b4fULL, 0x7c8b1863e898938fULL},
    {"bzip2", 0xce57cf5b148ef472ULL, 0x107633ae1554fe28ULL},
    {"crafty", 0xba390a08fb056439ULL, 0xfac3c4f5860dbc4cULL},
    {"eon", 0x86cd3f79d3d1c748ULL, 0x8ff5b537f32cbc5eULL},
    {"equake", 0x4ba38c3a2e40096fULL, 0x958645d736dd9fd7ULL},
    {"fma3d", 0xf03aa7e27935af02ULL, 0xfd2b131b7bb2551dULL},
    {"galgel", 0x9109f7a2282fc207ULL, 0x067e95854892a059ULL},
    {"gap", 0x7f84c73f9580eefdULL, 0x88e43308dafed38aULL},
    {"gcc", 0x1f7496ceea655195ULL, 0x7c0d28d0554b1b2cULL},
    {"gzip", 0x49855785d77f1f31ULL, 0xe11cf68256151f27ULL},
    {"lucas", 0x667d3c8abf3c86feULL, 0x025bf87ba982f2bdULL},
    {"mcf", 0x9833ebbf9141dd8bULL, 0x5977dac16aeea3f0ULL},
    {"mesa", 0x2774a25275660002ULL, 0x3b545586188bc9e4ULL},
    {"mgrid", 0x8602ca547f484322ULL, 0xcedfa9a84c11bebbULL},
    {"parser", 0x16a02618e7206e6eULL, 0xa3bd05d14838e11dULL},
    {"perl", 0x2fd6802ed6ef5174ULL, 0xb209238b62cac0bfULL},
    {"swim", 0xbf8c306ea8920485ULL, 0xaf1c13d86fc8dfdbULL},
    {"twolf", 0xde7170d681c9dd12ULL, 0xa54d9866de9c3dbaULL},
    {"vortex", 0x0a4eff47eded2d55ULL, 0x6745b0a85319415dULL},
    {"vpr", 0x4a7621085c26b6adULL, 0xed0d447e74ff458bULL},
    {"wupwise", 0x1a5affd8d2e35f45ULL, 0x89302ecd9a5c6227ULL},
};

TEST(Generator, StreamMatchesGolden)
{
    // Every MicroOp field of every profile's stream is a pure function
    // of (profile, seed, index); a faster at() must produce the same
    // bytes, including for dividends past 32 bits.
    ASSERT_EQ(std::size(kStreamPins), spec2000Names().size());
    for (const StreamPin &pin : kStreamPins) {
        const BenchmarkProfile &p = spec2000(pin.program);
        EXPECT_EQ(streamDigest(TraceGenerator(p, 1, kBase)), pin.seed1)
            << pin.program << " seed 1";
        EXPECT_EQ(streamDigest(TraceGenerator(p, 7, kBase)), pin.seed7)
            << pin.program << " seed 7";
    }
}

/** Fold every field of @p w into @p h. */
void
hashWalkRecord(check::Fnv64 &h, const WalkRecord &w)
{
    h.u64(w.pc);
    h.u64(w.address);
    h.u64(w.flags);
}

/** How rangeDigest reads a range. */
enum class Read {
    At,       ///< every MicroOp field of at()
    AtWalk,   ///< the walk record of at()
    ScanWalk, ///< the walk records of scanWalk()
};

/** Digest of [lo, hi) of @p src, read as @p read says. */
std::uint64_t
rangeDigest(const TraceSource &src, InstSeq lo, InstSeq hi, Read read)
{
    check::Fnv64 h;
    if (read == Read::ScanWalk) {
        std::vector<WalkRecord> recs(hi - lo);
        src.scanWalk(lo, recs.size(), recs.data(), 1);
        for (const WalkRecord &w : recs)
            hashWalkRecord(h, w);
    } else {
        for (InstSeq i = lo; i < hi; ++i) {
            if (read == Read::At)
                hashOp(h, src.at(i));
            else
                hashWalkRecord(h, walkRecordOf(src.at(i)));
        }
    }
    return h.value();
}

TEST(Generator, ConcurrentFirstUseMatchesSerial)
{
    // The slot table is built by whichever thread calls at() or
    // scanWalk() first. Four threads released together on a fresh
    // generator must each see the whole table: their streams must
    // equal a serial walk's, first through at(), then through the scan.
    const BenchmarkProfile &p = spec2000("gcc");
    constexpr unsigned kThreads = 4;
    constexpr InstSeq kPerThread = 20000;
    for (const bool scanned : {false, true}) {
        const TraceGenerator shared(p, 3, kBase);
        std::vector<std::uint64_t> digests(kThreads);
        std::atomic<bool> go{false};
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                while (!go.load(std::memory_order_acquire)) {
                }
                digests[t] = rangeDigest(shared, t * kPerThread,
                                         (t + 1) * kPerThread,
                                         scanned ? Read::ScanWalk
                                                 : Read::At);
            });
        }
        go.store(true, std::memory_order_release);
        for (std::thread &th : threads)
            th.join();

        const TraceGenerator serial(p, 3, kBase);
        for (unsigned t = 0; t < kThreads; ++t) {
            EXPECT_EQ(digests[t],
                      rangeDigest(serial, t * kPerThread,
                                  (t + 1) * kPerThread,
                                  scanned ? Read::AtWalk : Read::At))
                << "thread " << t << (scanned ? ", scan" : ", at()");
        }
    }
}

/**
 * The ranges the scan tests cover: mid-phase, across a phase boundary,
 * across a pointer-chase index (when the program chases), n = 1 (mid-
 * phase and on a chase index), several phases, and past 2^40.
 */
std::vector<std::pair<InstSeq, InstSeq>>
scanRanges(const BenchmarkProfile &p)
{
    const InstSeq phase = p.phaseInsts;
    std::vector<std::pair<InstSeq, InstSeq>> r = {
        {phase / 2 + 3, phase / 2 + 700},
        {3 * phase - 130, 3 * phase + 70},
        {phase + 5, phase + 6},
        {2 * phase - 17, 5 * phase + 33},
        {(InstSeq{1} << 40) - 300, (InstSeq{1} << 40) + 300},
    };
    if (p.chasePeriod != 0) {
        const InstSeq chase = 7 * InstSeq{p.chasePeriod};
        r.push_back({chase - 9, chase + 9});
        r.push_back({chase, chase + 1});
    }
    return r;
}

/** Expect @p src's scans of [lo, hi) to equal @p ref's at(). */
void
expectScansMatchAt(const TraceSource &src, const TraceSource &ref,
                   InstSeq lo, InstSeq hi, const std::string &label)
{
    // The walk records go to every third slot, as the walk interleaves
    // three threads; the slots between must stay untouched.
    constexpr std::size_t kStride = 3;
    const std::size_t n = hi - lo;
    std::vector<Addr> pcs(n);
    std::vector<WalkRecord> recs(n * kStride);
    for (WalkRecord &r : recs)
        r.pc = 0xdead;
    src.scanPcs(lo, n, pcs.data());
    src.scanWalk(lo, n, recs.data(), kStride);
    for (std::size_t i = 0; i < n; ++i) {
        const MicroOp op = ref.at(lo + i);
        const WalkRecord &r = recs[i * kStride];
        const std::string where = label + " index " + std::to_string(lo + i);
        ASSERT_EQ(pcs[i], op.pc) << where;
        ASSERT_EQ(r.pc, op.pc) << where;
        // The record's fields, derived from at()'s by hand.
        const bool mem = isMemOp(op.op);
        const bool cond = op.op == OpClass::Branch;
        const bool btb = (cond || op.op == OpClass::Call) && op.taken;
        ASSERT_EQ(r.address, mem ? op.effAddr : btb ? op.target : 0)
            << where;
        ASSERT_EQ((r.flags & kWalkMemOp) != 0, mem) << where;
        ASSERT_EQ((r.flags & kWalkCondBranch) != 0, cond) << where;
        ASSERT_EQ((r.flags & kWalkTaken) != 0, cond && op.taken) << where;
        ASSERT_EQ((r.flags & kWalkBtbUpdate) != 0, btb) << where;
        ASSERT_EQ(r.flags & ~0xF, 0) << where;
        for (std::size_t k = 1; k < kStride; ++k)
            ASSERT_EQ(recs[i * kStride + k].pc, 0xdeadu) << where;
    }
}

/** Expect @p src's scanOps of [lo, hi) to equal @p ref's at(). */
void
expectOpsMatchAt(const TraceSource &src, const TraceSource &ref,
                 InstSeq lo, InstSeq hi, const std::string &label)
{
    std::vector<MicroOp> ops(hi - lo);
    src.scanOps(lo, ops.size(), ops.data());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        check::Fnv64 got;
        check::Fnv64 want;
        hashOp(got, ops[i]);
        hashOp(want, ref.at(lo + i));
        ASSERT_EQ(got.value(), want.value())
            << label << " index " << lo + i;
    }
}

TEST(Generator, ScansMatchAt)
{
    // scanPcs and scanWalk share at()'s per-field code; a scan must
    // never disagree with at() on a field it fills, wherever the range
    // starts and whatever boundary it crosses.
    for (const std::string &name : spec2000Names()) {
        const BenchmarkProfile &p = spec2000(name);
        for (const std::uint64_t seed : {1u, 7u}) {
            const TraceGenerator gen(p, seed, kBase);
            for (const auto &[lo, hi] : scanRanges(p)) {
                expectScansMatchAt(gen, gen, lo, hi,
                                   name + " seed " + std::to_string(seed));
            }
        }
    }
}

TEST(Generator, ScanOpsMatchAt)
{
    // scanOps steps the loop offset, the code word and the chase index
    // instead of dividing per index; every MicroOp field must still
    // equal at()'s.
    for (const std::string &name : spec2000Names()) {
        const BenchmarkProfile &p = spec2000(name);
        for (const std::uint64_t seed : {1u, 7u}) {
            const TraceGenerator gen(p, seed, kBase);
            for (const auto &[lo, hi] : scanRanges(p)) {
                expectOpsMatchAt(gen, gen, lo, hi,
                                 name + " seed " + std::to_string(seed));
            }
        }
    }
}

/** A source that implements only at(): it reads the scan defaults. */
class AtOnlySource : public TraceSource
{
  public:
    explicit AtOnlySource(const TraceSource &inner) : inner_(inner) {}

    MicroOp at(InstSeq idx) const override { return inner_.at(idx); }

  private:
    const TraceSource &inner_;
};

TEST(Generator, DefaultScansMatchAt)
{
    // ScriptedSource, FailingSource and other test sources implement
    // only at(); TraceSource's default scans must read it faithfully.
    const BenchmarkProfile &p = spec2000("mcf");
    const TraceGenerator gen(p, 3, kBase);
    const AtOnlySource src(gen);
    for (const auto &[lo, hi] : scanRanges(p)) {
        expectScansMatchAt(src, gen, lo, hi, "at()-only mcf");
        expectOpsMatchAt(src, gen, lo, hi, "at()-only mcf");
    }
}

TEST(Generator, RefusesCodeBeyondTheSlotTable)
{
    // Branch and call targets are stored as 22-bit code words.
    BenchmarkProfile p = spec2000("gcc");
    p.codeBytes = 16u << 20;
    const TraceGenerator fits(p, 1, kBase);
    EXPECT_EQ(fits.at(0).seq, 0u);
    p.codeBytes += 4;
    EXPECT_EXIT(TraceGenerator(p, 1, kBase), ::testing::ExitedWithCode(1),
                "slot table");
}

TEST(Generator, PureFunctionOfIndex)
{
    const TraceGenerator gen(spec2000("gcc"), 42, kBase);
    for (InstSeq i = 0; i < 2000; i += 17) {
        const MicroOp a = gen.at(i);
        const MicroOp b = gen.at(i);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.effAddr, b.effAddr);
        EXPECT_EQ(a.taken, b.taken);
        EXPECT_EQ(a.dst, b.dst);
    }
}

TEST(Generator, SeedsChangeTheStream)
{
    const TraceGenerator a(spec2000("gcc"), 1, kBase);
    const TraceGenerator b(spec2000("gcc"), 2, kBase);
    unsigned same = 0;
    for (InstSeq i = 0; i < 1000; ++i)
        same += (a.at(i).op == b.at(i).op);
    EXPECT_LT(same, 900u); // streams must differ substantially
}

TEST(Generator, InstructionMixMatchesProfile)
{
    const BenchmarkProfile &p = spec2000("gzip");
    const TraceGenerator gen(p, 7, kBase);
    const InstSeq n = 200000;
    std::map<OpClass, unsigned> counts;
    for (InstSeq i = 0; i < n; ++i)
        ++counts[gen.at(i).op];

    const double loads =
        static_cast<double>(counts[OpClass::Load] + counts[OpClass::FpLoad]);
    const double stores = static_cast<double>(counts[OpClass::Store] +
                                              counts[OpClass::FpStore]);
    const double branches = static_cast<double>(counts[OpClass::Branch]);
    EXPECT_NEAR(loads / n, p.fLoad, 0.02);
    EXPECT_NEAR(stores / n, p.fStore, 0.02);
    EXPECT_NEAR(branches / n, p.fBranch, 0.02);
}

TEST(Generator, ChaseLoadsDependOnPreviousChaseLoad)
{
    const BenchmarkProfile &p = spec2000("mcf");
    ASSERT_GT(p.chasePeriod, 0u);
    const TraceGenerator gen(p, 3, kBase);
    // Start at 2*period: the instruction at index `period` is the first
    // chase load, so it is the first valid "previous" producer.
    for (InstSeq i = 2 * p.chasePeriod; i < 200 * p.chasePeriod;
         i += p.chasePeriod) {
        const MicroOp chase = gen.at(i);
        ASSERT_EQ(chase.op, OpClass::Load) << i;
        const MicroOp prev = gen.at(i - p.chasePeriod);
        ASSERT_TRUE(prev.hasDst);
        // The chase load's address register is the previous chase
        // load's destination: the dependence that serializes misses.
        EXPECT_EQ(chase.srcInt[0], prev.dst);
    }
}

TEST(Generator, PcLoopsLocallyWithinAPhase)
{
    const BenchmarkProfile &p = spec2000("gcc");
    const TraceGenerator gen(p, 5, kBase);
    std::set<Addr> pcs;
    const InstSeq n = std::min<InstSeq>(p.phaseInsts, 8000);
    for (InstSeq i = 0; i < n; ++i) {
        const Addr pc = gen.at(i).pc;
        EXPECT_EQ(pc % 4, 0u);
        EXPECT_GE(pc, kBase);
        pcs.insert(pc);
    }
    // Within one phase the PC iterates a hot inner loop: the distinct
    // PC count is bounded by the loop size, far below the instruction
    // count (this is what keeps the L1I hit rate realistic).
    EXPECT_LE(pcs.size(), p.innerLoopBytes / 4 + 16);
    EXPECT_GE(pcs.size(), std::min<std::size_t>(n, 16));
}

TEST(Generator, PcPhasesCoverMoreCodeOverTime)
{
    const BenchmarkProfile &p = spec2000("gcc");
    const TraceGenerator gen(p, 5, kBase);
    std::set<Addr> first_phase, many_phases;
    for (InstSeq i = 0; i < 2000; ++i)
        first_phase.insert(gen.at(i).pc);
    for (InstSeq i = 0; i < 2000; ++i)
        many_phases.insert(gen.at(i * (p.phaseInsts + 1)).pc);
    EXPECT_GT(many_phases.size(), first_phase.size());
}

TEST(Generator, MemoryOpsHaveAlignedAddressesInPrivateSpace)
{
    const TraceGenerator gen(spec2000("swim"), 9, kBase);
    for (InstSeq i = 0; i < 50000; ++i) {
        const MicroOp op = gen.at(i);
        if (isMemOp(op.op)) {
            EXPECT_EQ(op.effAddr % 8, 0u);
            EXPECT_GE(op.effAddr, kBase);
        }
    }
}

TEST(Generator, StreamProgramTouchesManyDistinctLines)
{
    const TraceGenerator gen(spec2000("art"), 11, kBase);
    std::set<Addr> lines;
    for (InstSeq i = 0; i < 100000; ++i) {
        const MicroOp op = gen.at(i);
        if (isLoadOp(op.op))
            lines.insert(op.effAddr >> 6);
    }
    // A streaming benchmark sweeps far more lines than fit in L1 (1024).
    EXPECT_GT(lines.size(), 2000u);
}

TEST(Generator, HotProgramReusesASmallLineSet)
{
    const BenchmarkProfile &p = spec2000("eon");
    const TraceGenerator gen(p, 13, kBase);
    std::map<Addr, unsigned> line_counts;
    unsigned mem_ops = 0;
    for (InstSeq i = 0; i < 100000; ++i) {
        const MicroOp op = gen.at(i);
        if (isMemOp(op.op)) {
            ++line_counts[op.effAddr >> 6];
            ++mem_ops;
        }
    }
    // Count accesses landing in the hot set (lines covering hotBytes).
    const unsigned hot_lines = p.hotBytes / 64;
    std::vector<unsigned> counts;
    for (const auto &[line, c] : line_counts)
        counts.push_back(c);
    std::sort(counts.rbegin(), counts.rend());
    std::uint64_t top = 0;
    for (unsigned i = 0; i < hot_lines && i < counts.size(); ++i)
        top += counts[i];
    EXPECT_GT(static_cast<double>(top) / mem_ops, 0.85);
}

TEST(Generator, BranchOutcomesAreDeterministicPerIndex)
{
    const TraceGenerator gen(spec2000("crafty"), 15, kBase);
    unsigned taken = 0, branches = 0;
    for (InstSeq i = 0; i < 100000; ++i) {
        const MicroOp op = gen.at(i);
        if (op.op == OpClass::Branch) {
            ++branches;
            taken += op.taken;
            EXPECT_EQ(op.taken, gen.at(i).taken);
            EXPECT_NE(op.target, 0u);
        }
    }
    ASSERT_GT(branches, 1000u);
    const double taken_rate = static_cast<double>(taken) / branches;
    EXPECT_GT(taken_rate, 0.2);
    EXPECT_LT(taken_rate, 0.8);
}

TEST(Generator, RegistersStayInRange)
{
    const TraceGenerator gen(spec2000("fma3d"), 17, kBase);
    for (InstSeq i = 0; i < 20000; ++i) {
        const MicroOp op = gen.at(i);
        if (op.hasDst) {
            EXPECT_GE(op.dst, 1);
            EXPECT_LT(op.dst, 31);
        }
        for (unsigned s = 0; s < op.numSrcInt; ++s)
            EXPECT_LT(op.srcInt[s], 32);
        for (unsigned s = 0; s < op.numSrcFp; ++s)
            EXPECT_LT(op.srcFp[s], 32);
    }
}

/** Property sweep: every profile generates self-consistent streams. */
class GeneratorAllPrograms
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GeneratorAllPrograms, StreamIsWellFormed)
{
    const BenchmarkProfile &p = spec2000(GetParam());
    const TraceGenerator gen(p, 23, kBase);
    for (InstSeq i = 0; i < 20000; ++i) {
        const MicroOp op = gen.at(i);
        EXPECT_EQ(op.seq, i);
        if (isMemOp(op.op)) {
            EXPECT_GT(op.numSrcInt, 0u) << "mem op needs a base register";
            EXPECT_NE(op.effAddr, 0u);
        }
        if (isControlOp(op.op)) {
            EXPECT_TRUE(op.target != 0 || !op.taken);
        }
        if (op.op == OpClass::FpAdd || op.op == OpClass::FpMul ||
            op.op == OpClass::FpDiv) {
            EXPECT_TRUE(op.dstIsFp);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllSpec2000, GeneratorAllPrograms,
                         ::testing::ValuesIn(spec2000Names()));

} // namespace
} // namespace rat::trace
