/**
 * @file
 * Abstract instruction-stream source consumed by the SMT core.
 *
 * The production implementation is TraceGenerator (synthetic SPEC2000
 * models); tests inject hand-written sequences through ScriptedSource to
 * exercise exact microarchitectural scenarios (forwarding, INV chains,
 * squash points) deterministically.
 */

#ifndef RAT_TRACE_SOURCE_HH
#define RAT_TRACE_SOURCE_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "trace/microop.hh"

namespace rat::trace {

/**
 * What the functional prewarm walk (core/prewarm.cc) reads of one
 * instruction: its PC, one address and four flags. Its lanes read the
 * record as it stands, so each field is exactly what they act on.
 */
struct WalkRecord {
    Addr pc = 0;
    /** Data address of a memory op; target of a taken branch or call. */
    Addr address = 0;
    std::uint8_t flags = 0;
};

/** WalkRecord::flags. */
enum WalkFlag : std::uint8_t {
    kWalkMemOp = 1,      ///< L1D and L2 install the line of `address`
    kWalkCondBranch = 2, ///< the perceptron trains on this branch
    kWalkTaken = 4,      ///< the conditional branch's resolved direction
    kWalkBtbUpdate = 8,  ///< taken branch or call: the BTB learns `address`
};

/**
 * The walk record of a micro-op, from its pc, op, effAddr, taken and
 * target (a MicroOp, or any type with those fields).
 */
template <class Op>
constexpr WalkRecord
walkRecordOf(const Op &op)
{
    // Selects, not branches: the op class of consecutive instructions
    // is close to random, so a branch on it mispredicts often.
    const bool mem = isMemOp(op.op);
    const bool cond = op.op == OpClass::Branch;
    const bool btb = (cond || op.op == OpClass::Call) && op.taken;
    WalkRecord r;
    r.pc = op.pc;
    r.address = mem ? op.effAddr : btb ? op.target : 0;
    r.flags = static_cast<std::uint8_t>(
        (mem ? kWalkMemOp : 0) | (cond ? kWalkCondBranch : 0) |
        (cond && op.taken ? kWalkTaken : 0) | (btb ? kWalkBtbUpdate : 0));
    return r;
}

/**
 * A replayable, random-access instruction stream. Implementations must
 * be pure: at(i) always returns the same micro-op (this is what makes
 * runahead rollback and FLUSH re-fetch work in a trace-driven model).
 * They must also be safe to call concurrently: a multi-worker prewarm
 * walk (core::SmtCore::prewarm) reads one source from several threads
 * at once.
 *
 * Sequential readers go through the scans, which fill a range of
 * indices at a time: every field (scanOps), the PCs (scanPcs) or the
 * walk records (scanWalk). Their defaults call at(); an implementation
 * may override them to share work between neighbouring indices or to
 * skip the fields they do not fill, as long as what they write equals
 * the same fields of at() (for scanWalk, walkRecordOf(at(i))).
 *
 * A reader may scan past the index it needs. SmtCore refills its
 * fetch memo by the aligned block of SmtCore::kTraceMemoBlock indices
 * around a miss, so a stream is read up to that many indices ahead of
 * the thread's fetch cursor (and behind it, within the block); the
 * prewarm walk reads only the indices it walks. Reading an index must
 * therefore have no effect but its result.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Micro-op at dynamic index @p idx. Must be pure, and safe to call
     * from several threads at once.
     */
    virtual MicroOp at(InstSeq idx) const = 0;

    /** Micro-ops of indices [first, first + n) into out[0, n). */
    virtual void
    scanOps(InstSeq first, std::size_t n, MicroOp *out) const
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = at(first + i);
    }

    /** PCs of indices [first, first + n) into out[0, n). */
    virtual void
    scanPcs(InstSeq first, std::size_t n, Addr *out) const
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = at(first + i).pc;
    }

    /**
     * Walk records of indices [first, first + n) into out[0],
     * out[stride], ..., out[(n - 1) * stride]: the walk interleaves
     * its threads' records in one array.
     */
    virtual void
    scanWalk(InstSeq first, std::size_t n, WalkRecord *out,
             std::size_t stride) const
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i * stride] = walkRecordOf(at(first + i));
    }
};

} // namespace rat::trace

#endif // RAT_TRACE_SOURCE_HH
