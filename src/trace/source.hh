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

#include "common/types.hh"
#include "trace/microop.hh"

namespace rat::trace {

/**
 * The fields of a micro-op the functional prewarm walk reads
 * (core/prewarm.cc). Each equals the same field of at().
 */
struct WalkOp {
    Addr pc = 0;
    /** Effective address of a memory op (0 otherwise). */
    Addr effAddr = 0;
    /** Resolved target of a control op (0 otherwise). */
    Addr target = 0;
    OpClass op = OpClass::IntAlu;
    /** Resolved direction of a control op. */
    bool taken = false;
};

/**
 * A replayable, random-access instruction stream. Implementations must
 * be pure: at(i) always returns the same micro-op (this is what makes
 * runahead rollback and FLUSH re-fetch work in a trace-driven model).
 * They must also be safe to call concurrently: a multi-worker prewarm
 * walk (core::SmtCore::prewarm) reads one source from several threads
 * at once.
 *
 * Sequential readers that need only a few fields go through the scans,
 * which fill those fields for a range of indices. Their defaults call
 * at(); an implementation may override them to skip the fields they
 * do not fill, as long as every filled field equals at()'s.
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

    /** PCs of indices [first, first + n) into out[0, n). */
    virtual void
    scanPcs(InstSeq first, std::size_t n, Addr *out) const
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = at(first + i).pc;
    }

    /** Walk fields of indices [first, first + n) into out[0, n). */
    virtual void
    scanWalk(InstSeq first, std::size_t n, WalkOp *out) const
    {
        for (std::size_t i = 0; i < n; ++i) {
            const MicroOp op = at(first + i);
            out[i] = WalkOp{op.pc, op.effAddr, op.target, op.op, op.taken};
        }
    }
};

} // namespace rat::trace

#endif // RAT_TRACE_SOURCE_HH
