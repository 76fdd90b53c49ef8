/**
 * @file
 * Deterministic synthetic instruction-stream generator.
 *
 * Every micro-op is a *pure function* of (profile, seed, instruction
 * index): `at(i)` always returns the same op for the same generator. This
 * is the property that makes runahead rollback work in a trace-driven
 * model — rewinding the trace cursor and replaying regenerates the exact
 * same instructions and addresses, so cache lines fetched during runahead
 * are hit again on replay, which is precisely the prefetching benefit the
 * paper's mechanism exploits (Sections 3.1 and 6.1).
 *
 * Dependence structure is encoded through rotating architectural register
 * assignment: instruction i writes register 1 + (i mod 30) of its class,
 * and consumers read the registers written a sampled small distance
 * earlier. Pointer-chase loads read the register written by the previous
 * chase load, making their addresses *data-dependent on a prior miss* —
 * the serialization that limits runahead prefetching on mcf-like codes.
 */

#ifndef RAT_TRACE_GENERATOR_HH
#define RAT_TRACE_GENERATOR_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/intmath.hh"
#include "common/types.hh"
#include "trace/microop.hh"
#include "trace/profile.hh"
#include "trace/source.hh"

namespace rat::trace {

/**
 * Synthesizes the dynamic micro-op stream of one program instance.
 *
 * Thread-safe for concurrent `at()` and scan calls. The only mutable
 * state is the static code-slot table, which the first `at()`,
 * `scanOps()` or `scanWalk()` builds for the whole code footprint under
 * `std::call_once`; later calls see it through an acquire load of the
 * ready flag. The table is a pure function of (profile, seed), so who
 * builds it cannot change a result. Not copyable or movable (hold it
 * by pointer, as the core does).
 */
class TraceGenerator : public TraceSource
{
  public:
    /**
     * @param profile Statistical program description (must outlive this).
     * @param seed    Stream seed; two instances of the same program in one
     *                workload should use different seeds.
     * @param base    Base of this program's private address space. Callers
     *                must give distinct, widely separated bases to distinct
     *                program instances (they model separate ASIDs).
     */
    TraceGenerator(const BenchmarkProfile &profile, std::uint64_t seed,
                   Addr base);

    /** Generate the micro-op at dynamic index @p idx. Pure. */
    MicroOp at(InstSeq idx) const override;

    /** Every field of a range: at() without its per-index divisions. */
    void scanOps(InstSeq first, std::size_t n, MicroOp *out) const override;

    /** The PCs alone: no slot table, no per-index draws. */
    void scanPcs(InstSeq first, std::size_t n, Addr *out) const override;

    /**
     * The walk records: at() without the dependence draws and the
     * register rotation.
     */
    void scanWalk(InstSeq first, std::size_t n, WalkRecord *out,
                  std::size_t stride) const override;

    /** The profile this stream was built from. */
    const BenchmarkProfile &profile() const { return *profile_; }

    /** Base address of this instance's address space. */
    Addr base() const { return base_; }

    /** Seed of this instance. */
    std::uint64_t seed() const { return seed_; }

  private:
    // Per-field derivations, shared by at() and the scans.

    /** Line-aligned code word where phase @p phase's inner loop starts. */
    std::uint64_t phaseWord(std::uint64_t phase) const;

    /**
     * Code word of instruction @p idx of the phase whose entry word is
     * @p phase_word.
     */
    std::uint64_t codeWord(std::uint64_t phase_word, InstSeq idx) const;

    /** PC of code word @p word. */
    Addr pcOf(std::uint64_t word) const { return codeBase_ + 4 * word; }

    /** Chase number of @p idx if it is a pointer-chase load, else 0. */
    std::uint64_t chaseOf(InstSeq idx) const;

    /**
     * Fill @p op with instruction @p idx at code word @p word, whose
     * chase number is @p chase (chaseOf(idx)): the walk fields (pc,
     * op, effAddr, taken, target), and the registers too when Op is a
     * MicroOp. The one derivation of every field, for at() and
     * scanOps() (Op = MicroOp) and scanWalk().
     */
    template <class Op>
    void fill(const std::uint32_t *slots, InstSeq idx, std::uint64_t word,
              std::uint64_t chase, Op &op) const;

    /**
     * Call f(idx, word, chase) for each index of [first, first + n) in
     * order, with idx's code word and chase number. Each phase's entry
     * word is drawn once, and the inner-loop offset, the code word and
     * the next chase index step with idx: one division per phase
     * instead of four per index.
     */
    template <class F>
    void scan(InstSeq first, std::size_t n, F &&f) const;

    /** Map a uniform draw to an op class via the precomputed CDF. */
    OpClass sampleOpClass(double u) const;

    /** Sampled RAW dependence distance in [1, 24]. */
    unsigned depDistance(std::uint64_t h) const;

    /** Rotating arch register written by instruction @p idx. */
    static ArchReg rotReg(InstSeq idx)
    {
        return static_cast<ArchReg>(1 + idx % 30);
    }

    /** Effective address for a non-chase memory access. */
    Addr dataAddress(InstSeq idx) const;

    /** The slot table, built on first use. */
    const std::uint32_t *slotTable() const;

    /**
     * Fill slots_: per code word, the static identity at() would
     * otherwise rehash from the word every instruction (layout in
     * generator.cc).
     */
    void buildSlotTable() const;

    const BenchmarkProfile *profile_;
    std::uint64_t seed_;
    Addr base_;

    // Precomputed region bases within the private address space.
    Addr codeBase_;
    Addr hotBase_;
    Addr warmBase_;
    Addr streamBase_;
    Addr coldBase_;
    Addr chaseBase_;

    // Precomputed op-class CDF thresholds (cumulative fractions).
    double cLoad_, cStore_, cBranch_, cCall_, cReturn_;
    double cFpAdd_, cFpMul_, cFpDiv_, cIntMul_, cIntDiv_, cSync_;

    std::uint32_t codeWords_;
    unsigned depSpread_;

    // Reciprocals of at()'s runtime-invariant divisors.
    InvariantDivisor phaseDiv_;     ///< phaseInsts
    InvariantDivisor loopDiv_;      ///< inner-loop words
    InvariantDivisor codeDiv_;      ///< codeWords_
    InvariantDivisor chaseDiv_;     ///< chasePeriod (if chasing)
    InvariantDivisor coldDiv_;      ///< coldBytes (if non-zero)
    InvariantDivisor periodDiv_[5]; ///< pattern-branch periods 2..6

    mutable std::vector<std::uint32_t> slots_; ///< one entry per word
    mutable std::once_flag slotsOnce_;
    mutable std::atomic<bool> slotsReady_{false};
};

} // namespace rat::trace

#endif // RAT_TRACE_GENERATOR_HH
