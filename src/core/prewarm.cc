/**
 * @file
 * The functional prewarm walk (SmtCore::prewarm; DESIGN.md, "A parallel
 * walk").
 *
 * The walk warms five structures: L1I, L1D, L2, perceptron and BTB. No
 * one of them reads another, so each one's final state depends only on
 * its own ordered sequence of installs and updates, with their pseudo
 * time stamps. The walk is therefore split in two: a record maker has
 * the streams write each thread-instruction's WalkRecord
 * (TraceSource::scanWalk, 64 instructions of a thread at a time,
 * interleaved by thread in place), and four lanes
 * (L1I; L1D; L2; perceptron + BTB) each replay one structure's updates
 * in the serial (instruction, thread) order. Which thread makes a
 * record, or runs a lane, cannot change a byte.
 *
 * With one worker the maker and the four lanes run fused, one 64-
 * instruction chunk at a time. With more, the walk goes in
 * double-buffered blocks: every worker replays its lanes over block n,
 * then helps generate block n+1 from a shared chunk cursor, and all
 * meet at one barrier per block.
 */

#include "core/smt_core.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace rat::core {

namespace {

using trace::WalkRecord;

/**
 * The walk's four lanes. Each owns one structure (the L2 lane both of
 * an instruction's L2 installs, PC line first) plus its own scratch, so
 * lanes may run on different threads at once. Within a lane, records
 * must arrive in the serial (instruction, thread) order.
 */
class WalkLanes
{
  public:
    WalkLanes(mem::MemoryHierarchy &mem, branch::PerceptronPredictor &pred,
              branch::Btb &btb, unsigned threads)
        : l1iCache_(mem.l1i()), l1dCache_(mem.l1d()), l2Cache_(mem.l2()),
          pred_(pred), btb_(btb), threads_(threads)
    {
    }

    void
    l1i(const WalkRecord &r, unsigned t, Cycle now)
    {
        Addr evicted = 0;
        l1iCache_.installHinted(l1iCache_.lineAlign(r.pc), now, now,
                                evicted, l1iHint_[t]);
    }

    void
    l1d(const WalkRecord &r, unsigned, Cycle now)
    {
        Addr evicted = 0;
        if (r.flags & trace::kWalkMemOp)
            l1dCache_.install(l1dCache_.lineAlign(r.address), now, now,
                              evicted);
    }

    void
    l2(const WalkRecord &r, unsigned t, Cycle now)
    {
        Addr evicted = 0;
        l2Cache_.installHinted(l2Cache_.lineAlign(r.pc), now, now, evicted,
                               l2Hint_[t]);
        if (r.flags & trace::kWalkMemOp)
            l2Cache_.install(l2Cache_.lineAlign(r.address), now, now,
                             evicted);
    }

    void
    predict(const WalkRecord &r, unsigned t, Cycle)
    {
        if (r.flags & trace::kWalkCondBranch) {
            const auto tid = static_cast<ThreadId>(t);
            const auto out = pred_.predict(tid, r.pc);
            pred_.update(tid, r.pc, (r.flags & trace::kWalkTaken) != 0, out);
        }
        if (r.flags & trace::kWalkBtbUpdate)
            btb_.update(r.pc, r.address);
    }

    /** Every lane on one record: the one-worker walk. */
    void
    all(const WalkRecord &r, unsigned t, Cycle now)
    {
        l1i(r, t, now);
        l1d(r, t, now);
        l2(r, t, now);
        predict(r, t, now);
    }

    /**
     * Replay lane @p lane (0 L1I, 1 L1D, 2 L2, 3 perceptron + BTB)
     * over @p insts instructions' records, in (instruction, thread)
     * order, the first stamped @p first.
     */
    void
    replay(unsigned lane, const WalkRecord *recs, InstSeq insts, Cycle first)
    {
        switch (lane) {
          case 0:
            return each<&WalkLanes::l1i>(recs, insts, first);
          case 1:
            return each<&WalkLanes::l1d>(recs, insts, first);
          case 2:
            return each<&WalkLanes::l2>(recs, insts, first);
          default:
            return each<&WalkLanes::predict>(recs, insts, first);
        }
    }

  private:
    template <void (WalkLanes::*Lane)(const WalkRecord &, unsigned, Cycle)>
    void
    each(const WalkRecord *recs, InstSeq insts, Cycle first)
    {
        for (InstSeq i = 0; i < insts; ++i)
            for (unsigned t = 0; t < threads_; ++t)
                (this->*Lane)(*recs++, t, first + i);
    }

    mem::Cache &l1iCache_;
    mem::Cache &l1dCache_;
    mem::Cache &l2Cache_;
    branch::PerceptronPredictor &pred_;
    branch::Btb &btb_;
    unsigned threads_;
    // Per-thread PC-line hints: the slot the thread's last PC line sits
    // in. Consecutive instructions mostly share a line, and while the
    // slot still holds it installHinted skips the set walk. Any value
    // is safe, so they start at slot 0 and never reach core state. On
    // their own lines: the L1I and L2 lanes may run on two threads.
    alignas(64) std::array<std::size_t, kMaxThreads> l1iHint_{};
    alignas(64) std::array<std::size_t, kMaxThreads> l2Hint_{};
};

/**
 * A reusable barrier for the walk's workers, on a mutex and a condition
 * variable: a waiter sleeps, so on a busy host (ctest -j, other cells)
 * it gives its core to the worker it waits for. cancel() releases every
 * waiter, now and later.
 */
class WalkBarrier
{
  public:
    explicit WalkBarrier(unsigned parties) : parties_(parties) {}

    WalkBarrier(const WalkBarrier &) = delete;
    WalkBarrier &operator=(const WalkBarrier &) = delete;

    /** Wait for every party; false once the barrier is cancelled. */
    bool
    arriveAndWait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (cancelled_)
            return false;
        if (++arrived_ == parties_) {
            arrived_ = 0;
            ++generation_;
            cv_.notify_all();
            return true;
        }
        const std::uint64_t gen = generation_;
        cv_.wait(lock, [&] { return generation_ != gen || cancelled_; });
        return !cancelled_;
    }

    void
    cancel()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            cancelled_ = true;
        }
        cv_.notify_all();
    }

  private:
    const unsigned parties_;
    unsigned arrived_ = 0;
    std::uint64_t generation_ = 0;
    bool cancelled_ = false;
    std::mutex mutex_;
    std::condition_variable cv_;
};

/** Instructions per block of the parallel walk (per thread). */
constexpr InstSeq kBlockInsts = 4096;
/**
 * Instructions per generation chunk (per thread): what the record
 * maker scans at a time, and a parallel walker claims at a time.
 */
constexpr InstSeq kChunkInsts = 64;
constexpr InstSeq kChunksPerBlock = kBlockInsts / kChunkInsts;

/** The walk's input: each thread's stream and its first index. */
struct WalkStreams {
    std::array<const trace::TraceSource *, kMaxThreads> gen{};
    std::array<InstSeq, kMaxThreads> base{};
    unsigned threads = 0;
};

/**
 * The record maker: the records of walk instructions [i, i + n)
 * (n <= kChunkInsts) of every thread, instruction-major, into @p out.
 */
void
makeRecords(const WalkStreams &in, InstSeq i, InstSeq n, WalkRecord *out)
{
    for (unsigned t = 0; t < in.threads; ++t)
        in.gen[t]->scanWalk(in.base[t] + i, static_cast<std::size_t>(n),
                            out + t, in.threads);
}

/**
 * The walk on @p workers > 1 threads (the caller is worker 0). Worker w
 * runs lanes w, w + workers, ...; workers beyond the lane count only
 * generate. Block n's records sit in buffer n % 2, instruction-major.
 */
void
parallelWalk(WalkLanes &lanes, const WalkStreams &in, InstSeq insts,
             Cycle first, unsigned workers)
{
    const unsigned threads = in.threads;
    const InstSeq blocks = (insts + kBlockInsts - 1) / kBlockInsts;
    const InstSeq chunks = (insts + kChunkInsts - 1) / kChunkInsts;
    std::vector<WalkRecord> buffer(2 * kBlockInsts * threads);
    const auto blockRecords = [&](InstSeq n) {
        return buffer.data() + (n % 2) * kBlockInsts * threads;
    };

    // Generation: claim chunks from one cursor, never past `end` (the
    // end of the block being generated), so the next block's
    // generation starts exactly at its own first chunk.
    std::atomic<InstSeq> nextChunk{0};
    const auto generate = [&](InstSeq block) {
        const InstSeq end = std::min(chunks, (block + 1) * kChunksPerBlock);
        for (;;) {
            InstSeq c = nextChunk.load(std::memory_order_relaxed);
            while (c < end && !nextChunk.compare_exchange_weak(
                                  c, c + 1, std::memory_order_relaxed)) {
            }
            if (c >= end)
                return;
            const InstSeq i = c * kChunkInsts;
            makeRecords(in, i, std::min(kChunkInsts, insts - i),
                        blockRecords(block) +
                            (c % kChunksPerBlock) * kChunkInsts * threads);
        }
    };

    WalkBarrier barrier(workers);
    std::mutex errorMutex;
    std::exception_ptr error;
    const auto fail = [&](std::exception_ptr e) {
        {
            std::lock_guard<std::mutex> lock(errorMutex);
            if (!error)
                error = e;
        }
        barrier.cancel();
    };

    const auto work = [&](unsigned w) {
        try {
            generate(0);
            if (!barrier.arriveAndWait())
                return;
            for (InstSeq n = 0; n < blocks; ++n) {
                const InstSeq start = n * kBlockInsts;
                const InstSeq len = std::min(kBlockInsts, insts - start);
                for (unsigned lane = w; lane < SmtCore::kWalkLanes;
                     lane += workers)
                    lanes.replay(lane, blockRecords(n), len, first + start);
                if (n + 1 < blocks)
                    generate(n + 1);
                if (!barrier.arriveAndWait())
                    return;
            }
        } catch (...) {
            fail(std::current_exception());
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    try {
        for (unsigned w = 1; w < workers; ++w)
            pool.emplace_back(work, w);
    } catch (...) {
        // The started workers would wait for the missing ones forever.
        fail(std::current_exception());
    }
    if (pool.size() + 1 == workers)
        work(0);
    for (std::thread &th : pool)
        th.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace

void
SmtCore::prewarm(InstSeq insts, unsigned workers)
{
    WalkLanes lanes(mem_, predictor_, btb_, config_.numThreads);
    WalkStreams in;
    in.threads = config_.numThreads;
    for (unsigned t = 0; t < in.threads; ++t) {
        in.gen[t] = threads_[t].gen;
        in.base[t] = threads_[t].nextSeq;
    }
    const auto first = static_cast<Cycle>(prewarmedInsts_);

    // Both paths interleave threads (instruction i of every thread,
    // then i + 1) so the shared L2's replacement state sees the same
    // competition it will see during timing simulation.
    if (workers > 1 && insts > 0) {
        parallelWalk(lanes, in, insts, first, workers);
    } else {
        std::array<WalkRecord, kChunkInsts * kMaxThreads> recs;
        for (InstSeq i = 0; i < insts; i += kChunkInsts) {
            const InstSeq n = std::min(kChunkInsts, insts - i);
            makeRecords(in, i, n, recs.data());
            const WalkRecord *r = recs.data();
            for (InstSeq k = 0; k < n; ++k)
                for (unsigned t = 0; t < in.threads; ++t)
                    lanes.all(*r++, t, first + i + k);
        }
    }

    for (unsigned t = 0; t < config_.numThreads; ++t)
        threads_[t].nextSeq += insts;
    prewarmedInsts_ += insts;

    // The pseudo-time used for LRU stamps must lie in the past of all
    // timing cycles, so fast-forward the core clock past it.
    cycle_ = std::max(cycle_, static_cast<Cycle>(prewarmedInsts_) + 1);
}

} // namespace rat::core
