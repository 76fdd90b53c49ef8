#include "policy/fetch_policies.hh"

namespace rat::policy {

void
RoundRobinPolicy::fetchOrder(const core::SmtCore &core,
                             std::vector<ThreadId> &order)
{
    const unsigned n = core.numThreads();
    order.clear();
    for (unsigned i = 0; i < n; ++i)
        order.push_back(static_cast<ThreadId>((next_ + i) % n));
    next_ = (next_ + 1) % n;
}

void
RoundRobinPolicy::onCyclesSkipped(const core::SmtCore &core, Cycle skipped)
{
    // fetchOrder advances the cursor once per cycle; elided idle cycles
    // must advance it the same way so the rotation stays bit-identical.
    next_ = static_cast<unsigned>((next_ + skipped) % core.numThreads());
}

void
IcountPolicy::fetchOrder(const core::SmtCore &core,
                         std::vector<ThreadId> &order)
{
    const unsigned n = core.numThreads();
    order.clear();
    for (unsigned i = 0; i < n; ++i)
        order.push_back(static_cast<ThreadId>((tiebreak_ + i) % n));
    // n <= kMaxThreads = 8: a stable insertion sort orders the few
    // thread ids without the per-cycle allocation of stable_sort.
    for (std::size_t i = 1; i < order.size(); ++i) {
        const ThreadId v = order[i];
        const unsigned key = core.icount(v);
        std::size_t j = i;
        while (j > 0 && core.icount(order[j - 1]) > key) {
            order[j] = order[j - 1];
            --j;
        }
        order[j] = v;
    }
    tiebreak_ = (tiebreak_ + 1) % n;
}

void
IcountPolicy::onCyclesSkipped(const core::SmtCore &core, Cycle skipped)
{
    // The per-cycle tiebreak rotation must account for elided cycles
    // (every ICOUNT-derived policy inherits this).
    tiebreak_ =
        static_cast<unsigned>((tiebreak_ + skipped) % core.numThreads());
}

bool
StallPolicy::mayFetch(const core::SmtCore &core, ThreadId tid)
{
    return !core.hasPendingL2Miss(tid);
}

bool
FlushPolicy::mayFetch(const core::SmtCore &core, ThreadId tid)
{
    return !core.hasPendingL2Miss(tid);
}

void
FlushPolicy::onL2MissDetected(core::SmtCore &core, ThreadId tid,
                              const core::DynInst &inst)
{
    // Squash everything younger than the missing load; fetch stays gated
    // (mayFetch) until the miss completes, then the thread re-fetches.
    core.squashYoungerThan(tid, inst.op.seq);
}

} // namespace rat::policy
