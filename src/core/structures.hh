/**
 * @file
 * Shared pipeline structures: issue queues, load/store queue, reorder
 * buffer, and functional-unit pools. (The runahead cache lives with the
 * rest of the runahead machinery in src/runahead/.)
 *
 * All capacity is shared among hardware threads (the paper's
 * complete-resource-sharing organisation, Section 4); per-thread
 * occupancy is tracked for the resource-control policies.
 */

#ifndef RAT_CORE_STRUCTURES_HH
#define RAT_CORE_STRUCTURES_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/dyninst.hh"

namespace rat::core {

/** Issue-queue class (Table 1: separate INT / FP / LS queues). */
enum class IqClass : std::uint8_t { Int = 0, Mem = 1, Fp = 2 };

/** Number of issue-queue classes. */
inline constexpr unsigned kNumIqClasses = 3;

/** Issue-queue class an op dispatches to. */
constexpr IqClass
iqClassOf(trace::OpClass op)
{
    if (trace::isMemOp(op))
        return IqClass::Mem;
    if (trace::isFpComputeOp(op))
        return IqClass::Fp;
    return IqClass::Int;
}

/**
 * One issue queue: unordered slots holding live instructions. Members
 * track their own slot index (DynInst::iqPos), so removal is O(1)
 * swap-with-back; the event-driven scheduler never scans the queue.
 */
class IssueQueue
{
  public:
    IssueQueue(std::string name, unsigned capacity)
        : name_(std::move(name)), capacity_(capacity)
    {
        entries_.reserve(capacity);
    }

    bool full() const { return entries_.size() >= capacity_; }
    unsigned size() const { return static_cast<unsigned>(entries_.size()); }
    unsigned capacity() const { return capacity_; }
    const std::string &name() const { return name_; }

    /** Insert a renamed instruction. Caller must check full(). */
    void
    insert(DynInst &inst)
    {
        RAT_ASSERT(entries_.size() < capacity_, "%s overflow",
                   name_.c_str());
        inst.iqPos = static_cast<std::uint32_t>(entries_.size());
        entries_.push_back(&inst);
    }

    /** Remove a member in O(1) (swap-with-back via iqPos). */
    void
    remove(DynInst &inst)
    {
        RAT_ASSERT(inst.iqPos < entries_.size() &&
                       entries_[inst.iqPos] == &inst,
                   "%s: removing a non-member", name_.c_str());
        DynInst *back = entries_.back();
        entries_[inst.iqPos] = back;
        back->iqPos = inst.iqPos;
        entries_.pop_back();
    }

    /** All current entries (introspection and structure tests). */
    const std::vector<DynInst *> &entries() const { return entries_; }

  private:
    std::string name_;
    unsigned capacity_;
    std::vector<DynInst *> entries_;
};

/**
 * Intrusive program-ordered instruction list through
 * DynInst::seqPrev/seqNext. Used for the per-thread fetch queues and
 * the per-thread ROB lists; an instruction moves from the fetch queue
 * to the ROB at rename and is never on both. Members are always live:
 * every owner pops an instruction before releasing it to the pool.
 */
class InstList
{
  public:
    DynInst *head() const { return head_; }
    DynInst *tail() const { return tail_; }
    bool empty() const { return head_ == nullptr; }
    unsigned size() const { return count_; }

    void
    push_back(DynInst &inst)
    {
        inst.seqPrev = tail_;
        inst.seqNext = nullptr;
        if (tail_)
            tail_->seqNext = &inst;
        else
            head_ = &inst;
        tail_ = &inst;
        ++count_;
    }

    void
    pop_front()
    {
        RAT_ASSERT(head_ != nullptr, "pop_front on empty InstList");
        DynInst *inst = head_;
        head_ = inst->seqNext;
        if (head_)
            head_->seqPrev = nullptr;
        else
            tail_ = nullptr;
        inst->seqNext = inst->seqPrev = nullptr;
        --count_;
    }

    void
    pop_back()
    {
        RAT_ASSERT(tail_ != nullptr, "pop_back on empty InstList");
        DynInst *inst = tail_;
        tail_ = inst->seqPrev;
        if (tail_)
            tail_->seqNext = nullptr;
        else
            head_ = nullptr;
        inst->seqNext = inst->seqPrev = nullptr;
        --count_;
    }

  private:
    DynInst *head_ = nullptr;
    DynInst *tail_ = nullptr;
    unsigned count_ = 0;
};

/**
 * Load/store queue: shared capacity, per-thread program-ordered lists
 * used for store-to-load forwarding and INV propagation through memory.
 *
 * The per-thread lists are intrusive doubly-linked chains through
 * DynInst::lsqPrev/lsqNext, so retire and squash removal are O(1)
 * regardless of position (commits remove from the front, branch and
 * runahead squashes from the back, but nothing here depends on that).
 * Members are always live instructions: every path removes a memory op
 * from the LSQ before releasing it to the pool.
 */
class Lsq
{
  public:
    explicit Lsq(unsigned capacity) : capacity_(capacity) {}

    bool full() const { return used_ >= capacity_; }
    unsigned used() const { return used_; }
    unsigned capacity() const { return capacity_; }

    /** Append a memory op in program order. Caller must check full(). */
    void
    insert(DynInst &inst)
    {
        RAT_ASSERT(used_ < capacity_, "LSQ overflow");
        RAT_ASSERT(!inst.inLsq, "double LSQ insert");
        Thread &t = lists_[inst.tid];
        inst.lsqPrev = t.tail;
        inst.lsqNext = nullptr;
        if (t.tail)
            t.tail->lsqNext = &inst;
        else
            t.head = &inst;
        t.tail = &inst;
        if (trace::isStoreOp(inst.op.op)) {
            inst.lsqStorePrev = t.storeTail;
            inst.lsqStoreNext = nullptr;
            if (t.storeTail)
                t.storeTail->lsqStoreNext = &inst;
            else
                t.storeHead = &inst;
            t.storeTail = &inst;
            ++t.storeCount;
        }
        inst.inLsq = true;
        ++t.count;
        ++used_;
    }

    /**
     * Remove a retiring or squashed memory op in O(1). No-op when the
     * op never entered the LSQ (folded at rename).
     */
    void
    remove(DynInst &inst)
    {
        if (!inst.inLsq)
            return;
        Thread &t = lists_[inst.tid];
        if (inst.lsqPrev)
            inst.lsqPrev->lsqNext = inst.lsqNext;
        else
            t.head = inst.lsqNext;
        if (inst.lsqNext)
            inst.lsqNext->lsqPrev = inst.lsqPrev;
        else
            t.tail = inst.lsqPrev;
        inst.lsqPrev = inst.lsqNext = nullptr;
        if (trace::isStoreOp(inst.op.op)) {
            if (inst.lsqStorePrev)
                inst.lsqStorePrev->lsqStoreNext = inst.lsqStoreNext;
            else
                t.storeHead = inst.lsqStoreNext;
            if (inst.lsqStoreNext)
                inst.lsqStoreNext->lsqStorePrev = inst.lsqStorePrev;
            else
                t.storeTail = inst.lsqStorePrev;
            inst.lsqStorePrev = inst.lsqStoreNext = nullptr;
            RAT_ASSERT(t.storeCount > 0, "LSQ store count underflow");
            --t.storeCount;
        }
        inst.inLsq = false;
        --t.count;
        --used_;
    }

    /**
     * Oldest in-flight memory op of a thread; walk in program order via
     * DynInst::lsqNext. nullptr when empty.
     */
    DynInst *head(ThreadId tid) const { return lists_[tid].head; }

    /**
     * Oldest in-flight *store* of a thread (walk via lsqStoreNext):
     * store-to-load forwarding scans only actual stores.
     */
    DynInst *storeHead(ThreadId tid) const { return lists_[tid].storeHead; }

    /** Per-thread occupancy (for resource policies). */
    unsigned threadCount(ThreadId tid) const { return lists_[tid].count; }

    /** Per-thread in-flight stores. */
    unsigned storeCount(ThreadId tid) const
    {
        return lists_[tid].storeCount;
    }

  private:
    struct Thread {
        DynInst *head = nullptr;
        DynInst *tail = nullptr;
        DynInst *storeHead = nullptr;
        DynInst *storeTail = nullptr;
        unsigned count = 0;
        unsigned storeCount = 0;
    };

    unsigned capacity_;
    unsigned used_ = 0;
    std::array<Thread, kMaxThreads> lists_{};
};

/**
 * Reorder buffer: shared entry pool with per-thread in-order lists.
 * Allocation competes across threads (the contention the paper studies);
 * each thread retires its own stream in order. The lists are intrusive
 * (InstList over DynInst::seqPrev/seqNext), so the commit hot path
 * reaches the head instruction without a handle indirection.
 */
class Rob
{
  public:
    explicit Rob(unsigned capacity) : capacity_(capacity) {}

    bool full() const { return used_ >= capacity_; }
    unsigned used() const { return used_; }
    unsigned freeEntries() const { return capacity_ - used_; }
    unsigned capacity() const { return capacity_; }

    void
    push(DynInst &inst)
    {
        RAT_ASSERT(used_ < capacity_, "ROB overflow");
        lists_[inst.tid].push_back(inst);
        ++used_;
    }

    /** Oldest instruction of a thread; nullptr when empty. */
    DynInst *head(ThreadId tid) const { return lists_[tid].head(); }

    bool empty(ThreadId tid) const { return lists_[tid].empty(); }

    void
    popHead(ThreadId tid)
    {
        RAT_ASSERT(!lists_[tid].empty(), "ROB underflow");
        lists_[tid].pop_front();
        --used_;
    }

    /** Youngest instruction of a thread; nullptr when empty. */
    DynInst *tail(ThreadId tid) const { return lists_[tid].tail(); }

    void
    popTail(ThreadId tid)
    {
        RAT_ASSERT(!lists_[tid].empty(), "ROB underflow");
        lists_[tid].pop_back();
        --used_;
    }

    unsigned threadCount(ThreadId tid) const { return lists_[tid].size(); }

  private:
    unsigned capacity_;
    unsigned used_ = 0;
    std::array<InstList, kMaxThreads> lists_{};
};

/**
 * A pool of identical functional units. Pipelined ops occupy a unit for
 * one cycle; unpipelined ops (divides) hold it for their full latency.
 */
class FuncUnitPool
{
  public:
    FuncUnitPool(std::string name, unsigned units)
        : name_(std::move(name)), busyUntil_(units, 0)
    {
    }

    /** Try to claim a unit at @p now for @p occupy cycles. */
    bool
    tryIssue(Cycle now, unsigned occupy)
    {
        for (Cycle &b : busyUntil_) {
            if (b <= now) {
                b = now + occupy;
                return true;
            }
        }
        return false;
    }

    /** Units free at @p now. */
    unsigned
    freeUnits(Cycle now) const
    {
        unsigned n = 0;
        for (Cycle b : busyUntil_) {
            if (b <= now)
                ++n;
        }
        return n;
    }

    unsigned size() const
    {
        return static_cast<unsigned>(busyUntil_.size());
    }

  private:
    std::string name_;
    std::vector<Cycle> busyUntil_;
};

} // namespace rat::core

#endif // RAT_CORE_STRUCTURES_HH
