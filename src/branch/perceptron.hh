/**
 * @file
 * Perceptron conditional-branch predictor (Jimenez & Lin, HPCA 2001),
 * the predictor named in the paper's Table 1 configuration.
 *
 * A shared table of perceptrons is indexed by PC; each hardware thread
 * keeps its own global history register. Predictions return the history
 * snapshot used, so the core can restore a thread's history on squash
 * (runahead exit restores the checkpointed history the same way).
 */

#ifndef RAT_BRANCH_PERCEPTRON_HH
#define RAT_BRANCH_PERCEPTRON_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rat::branch {

/** Largest perceptron table the predictor accepts (entries). */
inline constexpr unsigned kMaxPerceptronEntries = 1u << 16;

/** Configuration for the perceptron predictor. */
struct PerceptronConfig {
    /**
     * Number of perceptrons in the (thread-shared) table, in
     * [1, kMaxPerceptronEntries]. The synthetic traces spread branches
     * over the whole code footprint, so the table is sized to keep
     * destructive aliasing low.
     */
    unsigned tableEntries = 4096;
    /** Global history length (bits), in [1, 63]. */
    unsigned historyBits = 28;
    /** Saturation magnitude of each weight, in [1, 127]. */
    int weightLimit = 127;
};

/** Outcome of one prediction, echoed back for training. */
struct PerceptronOutput {
    bool taken = false;
    /** Dot-product output (needed for the training threshold). */
    std::int32_t sum = 0;
    /** Thread's history register value before speculative update. */
    std::uint64_t historyBefore = 0;
};

/**
 * The predictor. Thread-shared weights, per-thread history.
 */
class PerceptronPredictor
{
  public:
    explicit PerceptronPredictor(const PerceptronConfig &config = {});

    /**
     * Predict the direction of the branch at @p pc for thread @p tid and
     * speculatively update that thread's history with the prediction.
     */
    PerceptronOutput predict(ThreadId tid, Addr pc);

    /**
     * Train with the resolved outcome. @p out must be the value returned
     * by the corresponding predict() call. Also repairs the thread's
     * speculative history if the prediction was wrong.
     */
    void update(ThreadId tid, Addr pc, bool taken,
                const PerceptronOutput &out);

    /** Restore a thread's history register (squash / runahead exit). */
    void restoreHistory(ThreadId tid, std::uint64_t history);

    /** Current history register of a thread. */
    std::uint64_t history(ThreadId tid) const { return history_[tid]; }

    /** Training threshold theta = 1.93 * h + 14 (from the paper). */
    int theta() const { return theta_; }

    // --- statistics ------------------------------------------------------
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }
    /** Reset statistics only. */
    void resetStats();

    /**
     * Checkpoint enumeration (sim/checkpoint.hh): one template drives
     * both encode and decode — weight table, per-thread histories and
     * the statistics counters. The size marker turns a table-geometry
     * mismatch into a decode error. Only the historyBits + 1 weights
     * of each row are visited, never the padding, so the blob does not
     * depend on the row layout.
     */
    template <typename IO>
    void
    ckptVisit(IO &io)
    {
        const unsigned inputs = config_.historyBits + 1;
        io.size(std::size_t{config_.tableEntries} * inputs);
        for (std::size_t r = 0; r < config_.tableEntries; ++r) {
            std::int8_t *w = &weights_[r * stride_];
            for (unsigned i = 0; i < inputs; ++i)
                io.scalar(w[i]);
        }
        for (std::uint64_t &h : history_)
            io.scalar(h);
        io.scalar(lookups_);
        io.scalar(mispredicts_);
    }

  private:
    std::int32_t dot(const std::int8_t *w, std::uint64_t hist) const;
    void train(std::int8_t *w, std::uint64_t hist, bool taken);
    std::int8_t *row(Addr pc);
    std::uint64_t historyMask() const
    {
        return (std::uint64_t{1} << config_.historyBits) - 1;
    }

    PerceptronConfig config_;
    int theta_;
    /** Weights per row: historyBits + 1 rounded up to the lane count. */
    unsigned stride_;
    /** tableEntries - 1 when tableEntries is a power of two, else 0. */
    std::uint64_t indexMask_;
    /**
     * tableEntries rows of stride_ weights: the bias, one weight per
     * history bit, then zero padding that training never touches.
     */
    std::vector<std::int8_t> weights_;
    std::array<std::uint64_t, kMaxThreads> history_{};

    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace rat::branch

#endif // RAT_BRANCH_PERCEPTRON_HH
