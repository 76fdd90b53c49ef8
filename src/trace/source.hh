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

#include "common/types.hh"
#include "trace/microop.hh"

namespace rat::trace {

/**
 * A replayable, random-access instruction stream. Implementations must
 * be pure: at(i) always returns the same micro-op (this is what makes
 * runahead rollback and FLUSH re-fetch work in a trace-driven model).
 * They must also be safe to call concurrently: a multi-worker prewarm
 * walk (core::SmtCore::prewarm) calls at() on one source from several
 * threads at once.
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
};

} // namespace rat::trace

#endif // RAT_TRACE_SOURCE_HH
