#include "trace/generator.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/logging.hh"
#include "common/rng.hh"

namespace rat::trace {

namespace {

/** Convert a 64-bit hash to a uniform double in [0, 1). */
double
toUnit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** Bounded hash draw in [0, bound). */
std::uint64_t
bounded(std::uint64_t h, std::uint64_t bound)
{
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(h) * bound) >> 64);
}

/** Domain-separated per-index hash. */
std::uint64_t
draw(std::uint64_t seed, InstSeq idx, std::uint64_t salt)
{
    return splitmix64(seed ^ splitmix64(idx * 0x9e3779b97f4a7c15ULL + salt));
}

// Slot-table entry: one uint32_t per code word, holding the static
// identity of the instruction at that word.
//   [3:0]   op class, after the FP-data and lock/unlock refinement
//   [5:4]   branch kind (BranchKind)
//   [6]     easy-branch bias bit
//   [9:7]   pattern period - 2
//   [31:10] branch/call target word
constexpr std::uint32_t kClassMask = 0xF;
constexpr unsigned kKindShift = 4;
constexpr unsigned kBiasShift = 6;
constexpr unsigned kPeriodShift = 7;
constexpr unsigned kTargetShift = 10;
constexpr unsigned kTargetBits = 22;
static_assert(kNumOpClasses <= 16, "op class must fit 4 bits");

enum BranchKind : std::uint32_t { kEasy, kPattern, kRandom };

// Salt constants for the independent random draws of one instruction.
enum Salt : std::uint64_t {
    kSaltOp = 0x01,
    kSaltAddrMix = 0x02,
    kSaltAddrOff = 0x03,
    kSaltDep1 = 0x04,
    kSaltDep2 = 0x05,
    kSaltBranch = 0x06,
    kSaltFpMem = 0x07,
    kSaltSyncKind = 0x08,
    kSaltChase = 0x09,
    kSaltPhase = 0x0A,
};

} // namespace

TraceGenerator::TraceGenerator(const BenchmarkProfile &profile,
                               std::uint64_t seed, Addr base)
    : profile_(&profile), seed_(splitmix64(seed ^ 0xabcdef12345ULL)),
      base_(base)
{
    const auto &p = profile;
    RAT_ASSERT(p.codeBytes >= 4096, "code footprint too small");

    // Lay out the private address space: disjoint, page-aligned regions.
    Addr cursor = base_;
    auto carve = [&cursor](std::uint64_t bytes) {
        const Addr r = cursor;
        cursor += (bytes + 0xfff) & ~Addr{0xfff};
        cursor += 0x10000; // guard gap
        return r;
    };
    codeBase_ = carve(p.codeBytes);
    hotBase_ = carve(p.hotBytes);
    warmBase_ = carve(p.warmBytes);
    streamBase_ = carve(p.coldBytes);
    coldBase_ = carve(p.coldBytes);
    chaseBase_ = carve(p.chaseBytes);

    // Op-class CDF. Anything left over is integer ALU work.
    double c = 0.0;
    cLoad_ = (c += p.fLoad);
    cStore_ = (c += p.fStore);
    cBranch_ = (c += p.fBranch);
    cCall_ = (c += p.fCall);
    cReturn_ = (c += p.fReturn);
    cFpAdd_ = (c += p.fFpAdd);
    cFpMul_ = (c += p.fFpMul);
    cFpDiv_ = (c += p.fFpDiv);
    cIntMul_ = (c += p.fIntMul);
    cIntDiv_ = (c += p.fIntDiv);
    cSync_ = (c += p.fSync);
    if (c > 1.0)
        fatal("profile '%s': instruction mix fractions sum to %.3f > 1",
              p.name.c_str(), c);

    codeWords_ = p.codeBytes / 4;
    if (codeWords_ > (std::uint32_t{1} << kTargetBits))
        fatal("profile '%s': %u bytes of code exceed the %u-word slot "
              "table",
              p.name.c_str(), p.codeBytes, 1u << kTargetBits);
    if (p.phaseInsts == 0)
        fatal("profile '%s': phaseInsts must be non-zero", p.name.c_str());
    depSpread_ = std::max(
        1u, static_cast<unsigned>(2.0 * (p.meanDepDistance - 1.0) + 0.5));

    phaseDiv_ = InvariantDivisor(p.phaseInsts);
    loopDiv_ = InvariantDivisor(
        std::max<std::uint32_t>(16, p.innerLoopBytes / 4));
    codeDiv_ = InvariantDivisor(codeWords_);
    // A zero chase period disables chasing, and a zero cold region is
    // legal while the stream band (its only division) is empty.
    if (p.chasePeriod != 0)
        chaseDiv_ = InvariantDivisor(p.chasePeriod);
    if (p.coldBytes != 0)
        coldDiv_ = InvariantDivisor(p.coldBytes);
    for (unsigned i = 0; i < 5; ++i)
        periodDiv_[i] = InvariantDivisor(2 + i);
}

const std::uint32_t *
TraceGenerator::slotTable() const
{
    if (!slotsReady_.load(std::memory_order_acquire)) {
        std::call_once(slotsOnce_, [this] {
            buildSlotTable();
            slotsReady_.store(true, std::memory_order_release);
        });
    }
    return slots_.data();
}

void
TraceGenerator::buildSlotTable() const
{
    const auto &p = *profile_;
    slots_.resize(codeWords_);
    for (std::uint32_t word = 0; word < codeWords_; ++word) {
        // Static instruction identity: the op class of a code slot is a
        // pure function of its PC, like real code — the same slot is
        // always a branch (or load, ...) on every loop iteration. This
        // is what gives the branch predictor and BTB stable static
        // branches.
        OpClass cls = sampleOpClass(toUnit(draw(seed_, word, kSaltOp)));

        // Decide the data-register class of memory ops (also static).
        if (cls == OpClass::Load || cls == OpClass::Store) {
            const bool fp_data =
                toUnit(draw(seed_, word, kSaltFpMem)) < p.fpMemShare;
            if (fp_data)
                cls = (cls == OpClass::Load) ? OpClass::FpLoad
                                             : OpClass::FpStore;
        } else if (cls == OpClass::Lock) {
            if (draw(seed_, word, kSaltSyncKind) & 1)
                cls = OpClass::Unlock;
        }
        std::uint32_t entry = static_cast<std::uint32_t>(cls);

        if (cls == OpClass::Branch || cls == OpClass::Call) {
            // Static branch behaviour and target: a pure function of
            // the PC.
            const std::uint64_t pc_hash =
                splitmix64((codeBase_ + 4 * Addr{word}) ^ seed_);
            entry |= static_cast<std::uint32_t>(codeDiv_.mod(pc_hash >> 24))
                     << kTargetShift;
            if (cls == OpClass::Branch) {
                const double u_cls = toUnit(pc_hash);
                const BranchKind kind =
                    u_cls < p.pEasyBranch ? kEasy
                    : u_cls < p.pEasyBranch + p.pPatternBranch ? kPattern
                                                               : kRandom;
                entry |= kind << kKindShift;
                entry |= static_cast<std::uint32_t>((pc_hash >> 8) & 1)
                         << kBiasShift;
                entry |= static_cast<std::uint32_t>((pc_hash >> 16) % 5)
                         << kPeriodShift;
            }
        }
        slots_[word] = entry;
    }
}

OpClass
TraceGenerator::sampleOpClass(double u) const
{
    if (u < cLoad_)
        return OpClass::Load; // FP-vs-INT data reg decided by caller
    if (u < cStore_)
        return OpClass::Store;
    if (u < cBranch_)
        return OpClass::Branch;
    if (u < cCall_)
        return OpClass::Call;
    if (u < cReturn_)
        return OpClass::Return;
    if (u < cFpAdd_)
        return OpClass::FpAdd;
    if (u < cFpMul_)
        return OpClass::FpMul;
    if (u < cFpDiv_)
        return OpClass::FpDiv;
    if (u < cIntMul_)
        return OpClass::IntMul;
    if (u < cIntDiv_)
        return OpClass::IntDiv;
    if (u < cSync_)
        return OpClass::Lock; // caller rehashes Lock vs Unlock
    return OpClass::IntAlu;
}

unsigned
TraceGenerator::depDistance(std::uint64_t h) const
{
    const unsigned d = 1 + static_cast<unsigned>(bounded(h, depSpread_));
    return std::min(d, 24u);
}

Addr
TraceGenerator::dataAddress(InstSeq idx) const
{
    const auto &p = *profile_;
    const double u = toUnit(draw(seed_, idx, kSaltAddrMix));
    const std::uint64_t off_draw = draw(seed_, idx, kSaltAddrOff);

    const double c_hot = p.pHot;
    const double c_warm = c_hot + p.pWarm;
    const double c_stream = c_warm + p.pStream;

    Addr addr;
    if (u < c_hot) {
        addr = hotBase_ + bounded(off_draw, p.hotBytes);
    } else if (u < c_warm) {
        addr = warmBase_ + bounded(off_draw, p.warmBytes);
    } else if (u < c_stream) {
        // The stream cursor advances with the instruction index itself,
        // giving spatial locality and steady compulsory misses.
        const auto advance =
            static_cast<std::uint64_t>(p.streamBytesPerInst *
                                       static_cast<double>(idx));
        addr = streamBase_ + coldDiv_.mod(advance);
    } else {
        addr = coldBase_ + bounded(off_draw, p.coldBytes);
    }
    return addr & ~Addr{7}; // 8-byte aligned accesses
}

std::uint64_t
TraceGenerator::phaseWord(std::uint64_t phase) const
{
    // Phase-based PC stream: iterate a hot inner loop for phaseInsts
    // instructions, then jump to a different region of the footprint.
    return bounded(draw(seed_, phase, kSaltPhase), codeWords_) &
           ~std::uint64_t{15}; // line-aligned phase entry point
}

std::uint64_t
TraceGenerator::codeWord(std::uint64_t phase_word, InstSeq idx) const
{
    return codeDiv_.mod(phase_word + loopDiv_.mod(idx));
}

std::uint64_t
TraceGenerator::chaseOf(InstSeq idx) const
{
    // Pointer-chase loads occur on a fixed period so that the previous
    // chase load's index (and thus its destination register) is computable
    // without generator state.
    const std::uint32_t period = profile_->chasePeriod;
    const std::uint64_t chase = period != 0 ? chaseDiv_.div(idx) : 0;
    return chase != 0 && idx == chase * period ? chase : 0;
}

template <class Op>
void
TraceGenerator::fill(const std::uint32_t *slots, InstSeq idx,
                     std::uint64_t word, std::uint64_t chase, Op &op) const
{
    // Only a full micro-op gets registers: a scan skips the dependence
    // draws and the register rotation.
    constexpr bool kRegs = std::is_same_v<Op, MicroOp>;
    const auto &p = *profile_;
    op.pc = pcOf(word);
    if (chase != 0) {
        op.op = OpClass::Load;
        const std::uint64_t chain = draw(seed_, chase, kSaltChase);
        op.effAddr = (chaseBase_ + bounded(chain, p.chaseBytes)) & ~Addr{7};
        if constexpr (kRegs) {
            // The address register is the previous chase load's
            // destination.
            op.hasDst = true;
            op.dstIsFp = false;
            op.dst = rotReg(idx);
            op.srcInt[0] = rotReg(idx - p.chasePeriod);
            op.numSrcInt = 1;
        }
        return;
    }

    const std::uint32_t entry = slots[word];
    const auto cls = static_cast<OpClass>(entry & kClassMask);
    op.op = cls;

    [[maybe_unused]] ArchReg r1 = 0, r2 = 0, dst = 0;
    if constexpr (kRegs) {
        const auto int_src = [&](unsigned d) {
            return idx >= d ? rotReg(idx - d) : ArchReg{1};
        };
        r1 = int_src(depDistance(draw(seed_, idx, kSaltDep1)));
        r2 = int_src(depDistance(draw(seed_, idx, kSaltDep2)));
        dst = rotReg(idx);
    }

    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
        if constexpr (kRegs) {
            op.srcInt[0] = r1;
            op.srcInt[1] = r2;
            op.numSrcInt = 2;
            op.hasDst = true;
            op.dstIsFp = false;
            op.dst = dst;
        }
        break;

      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        if constexpr (kRegs) {
            op.srcFp[0] = r1; // same rotation in the FP space
            op.srcFp[1] = r2;
            op.numSrcFp = 2;
            op.hasDst = true;
            op.dstIsFp = true;
            op.dst = dst;
        }
        break;

      case OpClass::Load:
      case OpClass::FpLoad:
        if constexpr (kRegs) {
            op.srcInt[0] = r1; // address base register
            op.numSrcInt = 1;
            op.hasDst = true;
            op.dstIsFp = cls == OpClass::FpLoad;
            op.dst = dst;
        }
        op.effAddr = dataAddress(idx);
        break;

      case OpClass::Store:
        if constexpr (kRegs) {
            op.srcInt[0] = r1; // address base
            op.srcInt[1] = r2; // data
            op.numSrcInt = 2;
        }
        op.effAddr = dataAddress(idx);
        break;

      case OpClass::FpStore:
        if constexpr (kRegs) {
            op.srcInt[0] = r1; // address base
            op.numSrcInt = 1;
            op.srcFp[0] = r2; // data
            op.numSrcFp = 1;
        }
        op.effAddr = dataAddress(idx);
        break;

      case OpClass::Branch:
        if constexpr (kRegs) {
            op.srcInt[0] = r1; // condition register
            op.numSrcInt = 1;
        }
        switch ((entry >> kKindShift) & 3) {
          case kEasy: {
            const double bias = (entry >> kBiasShift) & 1
                                    ? p.easyBias
                                    : 1.0 - p.easyBias;
            op.taken = toUnit(draw(seed_, idx, kSaltBranch)) < bias;
            break;
          }
          case kPattern: {
            const unsigned period = 2 + ((entry >> kPeriodShift) & 7);
            op.taken = periodDiv_[period - 2].mod(idx) * 2 < period;
            break;
          }
          default: // kRandom
            op.taken = draw(seed_, idx, kSaltBranch) & 1;
            break;
        }
        op.target = codeBase_ + 4 * Addr{entry >> kTargetShift};
        break;

      case OpClass::Call:
        if constexpr (kRegs) {
            op.srcInt[0] = r1;
            op.numSrcInt = 1;
            op.hasDst = true; // link register write
            op.dstIsFp = false;
            op.dst = dst;
        }
        op.taken = true;
        op.target = codeBase_ + 4 * Addr{entry >> kTargetShift};
        break;

      case OpClass::Return:
        if constexpr (kRegs) {
            op.srcInt[0] = r1;
            op.numSrcInt = 1;
        }
        op.taken = true;
        // Model: return to the point after some earlier call site; the
        // RAS supplies this in hardware, so the trace target matches the
        // RAS prediction whenever the stack is balanced.
        op.target = codeBase_ + 4 * codeDiv_.mod(idx * 7 + 3);
        break;

      case OpClass::Lock:
      case OpClass::Unlock:
        if constexpr (kRegs) {
            op.srcInt[0] = r1;
            op.numSrcInt = 1;
        }
        break;

      case OpClass::NumClasses:
        panic("sampled invalid op class");
    }
}

MicroOp
TraceGenerator::at(InstSeq idx) const
{
    const std::uint32_t *slots = slotTable();
    MicroOp op;
    op.seq = idx;
    op.memSize = 8;
    fill(slots, idx, codeWord(phaseWord(phaseDiv_.div(idx)), idx),
         chaseOf(idx), op);
    return op;
}

template <class F>
void
TraceGenerator::scan(InstSeq first, std::size_t n, F &&f) const
{
    const std::uint64_t phase_len = profile_->phaseInsts;
    const std::uint64_t loop_len = loopDiv_.divisor();
    const std::uint32_t period = profile_->chasePeriod;
    InstSeq idx = first;
    std::uint64_t offset = loopDiv_.mod(idx); // codeWord's idx % loop_len
    // The first chase index at or after idx: chase numbers start at 1.
    std::uint64_t chase_num = 0;
    InstSeq next_chase = ~InstSeq{0};
    if (period != 0) {
        const std::uint64_t q = chaseDiv_.div(idx);
        chase_num = q != 0 && q * period == idx ? q : q + 1;
        next_chase = chase_num * period;
    }
    while (n > 0) {
        const std::uint64_t phase = phaseDiv_.div(idx);
        const std::uint64_t phase_word = phaseWord(phase);
        const std::uint64_t left = phase_len - (idx - phase * phase_len);
        const std::size_t take =
            static_cast<std::size_t>(std::min<std::uint64_t>(n, left));
        std::uint64_t word = codeDiv_.mod(phase_word + offset);
        for (std::size_t i = 0; i < take; ++i, ++idx) {
            std::uint64_t chase = 0;
            if (idx == next_chase) {
                chase = chase_num++;
                next_chase += period;
            }
            f(idx, word, chase);
            // phase_word < codeWords_, so a wrapped offset restarts
            // the loop at phase_word itself.
            if (++offset == loop_len) {
                offset = 0;
                word = phase_word;
            } else if (++word == codeWords_) {
                word = 0;
            }
        }
        n -= take;
    }
}

namespace {

/** The fields fill() derives for a walk record. */
struct WalkFields {
    Addr pc = 0;
    Addr effAddr = 0;
    Addr target = 0;
    OpClass op = OpClass::IntAlu;
    bool taken = false;
};

} // namespace

void
TraceGenerator::scanOps(InstSeq first, std::size_t n, MicroOp *out) const
{
    const std::uint32_t *slots = slotTable();
    scan(first, n, [&](InstSeq idx, std::uint64_t word, std::uint64_t chase) {
        MicroOp &op = *out++;
        op = MicroOp{};
        op.seq = idx;
        fill(slots, idx, word, chase, op);
    });
}

void
TraceGenerator::scanPcs(InstSeq first, std::size_t n, Addr *out) const
{
    scan(first, n, [&](InstSeq, std::uint64_t word, std::uint64_t) {
        *out++ = pcOf(word);
    });
}

void
TraceGenerator::scanWalk(InstSeq first, std::size_t n, WalkRecord *out,
                         std::size_t stride) const
{
    const std::uint32_t *slots = slotTable();
    scan(first, n, [&](InstSeq idx, std::uint64_t word, std::uint64_t chase) {
        WalkFields w;
        fill(slots, idx, word, chase, w);
        *out = walkRecordOf(w);
        out += stride;
    });
}

} // namespace rat::trace
