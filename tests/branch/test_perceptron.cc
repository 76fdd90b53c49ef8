/** @file Unit tests for the perceptron branch predictor. */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "branch/perceptron.hh"

namespace rat::branch {
namespace {

TEST(Perceptron, ThetaFollowsJimenezLin)
{
    PerceptronConfig cfg;
    cfg.historyBits = 28;
    PerceptronPredictor p(cfg);
    EXPECT_EQ(p.theta(), static_cast<int>(1.93 * 28 + 14));
}

TEST(Perceptron, LearnsAlwaysTakenBranch)
{
    PerceptronPredictor p;
    const Addr pc = 0x1000;
    // Train on an always-taken branch.
    for (int i = 0; i < 200; ++i) {
        const auto out = p.predict(0, pc);
        p.update(0, pc, true, out);
    }
    const auto out = p.predict(0, pc);
    EXPECT_TRUE(out.taken);
}

TEST(Perceptron, LearnsAlternatingPattern)
{
    PerceptronPredictor p;
    const Addr pc = 0x2000;
    // Alternating T/N is linearly separable on the last history bit.
    bool dir = false;
    for (int i = 0; i < 2000; ++i) {
        const auto out = p.predict(0, pc);
        p.update(0, pc, dir, out);
        dir = !dir;
    }
    unsigned correct = 0;
    for (int i = 0; i < 200; ++i) {
        const auto out = p.predict(0, pc);
        correct += (out.taken == dir);
        p.update(0, pc, dir, out);
        dir = !dir;
    }
    EXPECT_GT(correct, 190u);
}

TEST(Perceptron, PerThreadHistoriesAreIndependent)
{
    PerceptronPredictor p;
    const std::uint64_t h0 = p.history(0);
    p.predict(1, 0x3000);
    EXPECT_EQ(p.history(0), h0); // thread 0 history untouched
}

TEST(Perceptron, MispredictRepairsHistory)
{
    PerceptronPredictor p;
    const auto out = p.predict(0, 0x4000);
    // Force the opposite outcome; history must be rewritten with it.
    const bool actual = !out.taken;
    p.update(0, 0x4000, actual, out);
    EXPECT_EQ(p.history(0) & 1, actual ? 1u : 0u);
    EXPECT_EQ(p.mispredicts(), 1u);
}

TEST(Perceptron, RestoreHistory)
{
    PerceptronPredictor p;
    const std::uint64_t checkpoint = p.history(0);
    for (int i = 0; i < 10; ++i)
        p.predict(0, 0x5000 + 4 * i);
    EXPECT_NE(p.history(0), checkpoint + 12345); // sanity
    p.restoreHistory(0, checkpoint);
    EXPECT_EQ(p.history(0), checkpoint);
}

TEST(Perceptron, StatsCount)
{
    PerceptronPredictor p;
    const auto out = p.predict(0, 0x6000);
    p.update(0, 0x6000, !out.taken, out);
    EXPECT_EQ(p.lookups(), 1u);
    EXPECT_EQ(p.mispredicts(), 1u);
    p.resetStats();
    EXPECT_EQ(p.lookups(), 0u);
}

TEST(PerceptronDeathTest, BadHistoryLengthIsFatal)
{
    PerceptronConfig cfg;
    cfg.historyBits = 64;
    EXPECT_EXIT(PerceptronPredictor{cfg}, ::testing::ExitedWithCode(1),
                "history length");
}

TEST(PerceptronDeathTest, WeightLimitOutsideOneTo127IsFatal)
{
    // Above 127 a weight trained to 128 would wrap in int8; a negative
    // limit is an inverted clamp range; 0 pins every weight at 0.
    for (const int limit : {0, -1, -63, 128, 1000}) {
        PerceptronConfig cfg;
        cfg.weightLimit = limit;
        EXPECT_EXIT(PerceptronPredictor{cfg}, ::testing::ExitedWithCode(1),
                    "fatal: perceptron weightLimit -?[0-9]+ out of range "
                    "\\[1,127\\]")
            << limit;
    }
}

TEST(PerceptronDeathTest, OversizedTableIsFatal)
{
    // Refused before the weight table is allocated: 4e9 entries used to
    // die on std::bad_alloc.
    for (const unsigned entries :
         {0u, kMaxPerceptronEntries + 1, 4000000000u}) {
        PerceptronConfig cfg;
        cfg.tableEntries = entries;
        EXPECT_EXIT(PerceptronPredictor{cfg}, ::testing::ExitedWithCode(1),
                    "fatal: perceptron tableEntries [0-9]+ out of range "
                    "\\[1,65536\\]")
            << entries;
    }
}

TEST(Perceptron, AcceptsTheEdgesOfEveryRange)
{
    PerceptronConfig cfg;
    cfg.tableEntries = kMaxPerceptronEntries;
    cfg.historyBits = 63;
    cfg.weightLimit = 127;
    PerceptronPredictor wide(cfg);
    EXPECT_EQ(wide.predict(0, 0x1000).sum, 0);
    cfg.tableEntries = 1;
    cfg.historyBits = 1;
    cfg.weightLimit = 1;
    PerceptronPredictor narrow(cfg);
    EXPECT_EQ(narrow.predict(0, 0x1000).sum, 0);
}

/**
 * The predictor as it was before the row-wide kernels: unpadded rows,
 * a modulo index, one weight at a time. The reference the kernels are
 * checked against.
 */
class ScalarPerceptron
{
  public:
    explicit ScalarPerceptron(const PerceptronConfig &cfg)
        : cfg_(cfg), theta_(static_cast<int>(1.93 * cfg.historyBits + 14)),
          weights_(std::size_t{cfg.tableEntries} * (cfg.historyBits + 1))
    {
    }

    PerceptronOutput
    predict(ThreadId tid, Addr pc)
    {
        const std::int8_t *w = row(pc);
        PerceptronOutput out;
        out.historyBefore = history_[tid];
        std::int32_t y = w[0];
        for (unsigned i = 0; i < cfg_.historyBits; ++i)
            y += (out.historyBefore >> i) & 1 ? w[i + 1] : -w[i + 1];
        out.sum = y;
        out.taken = y >= 0;
        history_[tid] = ((history_[tid] << 1) | out.taken) & mask();
        return out;
    }

    void
    update(ThreadId tid, Addr pc, bool taken, const PerceptronOutput &out)
    {
        if (taken != out.taken)
            history_[tid] = ((out.historyBefore << 1) | taken) & mask();
        if (taken == out.taken && std::abs(out.sum) > theta_)
            return;
        std::int8_t *w = row(pc);
        const int t = taken ? 1 : -1;
        const auto clamp = [this](int v) {
            return static_cast<std::int8_t>(
                std::clamp(v, -cfg_.weightLimit, cfg_.weightLimit));
        };
        w[0] = clamp(w[0] + t);
        for (unsigned i = 0; i < cfg_.historyBits; ++i) {
            const int x = (out.historyBefore >> i) & 1 ? 1 : -1;
            w[i + 1] = clamp(w[i + 1] + t * x);
        }
    }

    std::uint64_t history(ThreadId tid) const { return history_[tid]; }
    const std::vector<std::int8_t> &weights() const { return weights_; }

  private:
    std::int8_t *
    row(Addr pc)
    {
        const std::uint64_t h = (pc >> 2) ^ (pc >> 13);
        return &weights_[(h % cfg_.tableEntries) * (cfg_.historyBits + 1)];
    }

    std::uint64_t mask() const
    {
        return (std::uint64_t{1} << cfg_.historyBits) - 1;
    }

    PerceptronConfig cfg_;
    int theta_;
    std::vector<std::int8_t> weights_;
    std::uint64_t history_[kMaxThreads] = {};
};

/** A checkpoint visitor that collects the weights ckptVisit encodes. */
struct WeightCollector {
    std::size_t expected = 0;
    std::vector<std::int8_t> weights;

    void size(std::size_t n) { expected = n; }
    void scalar(std::int8_t &w) { weights.push_back(w); }
    void scalar(std::uint64_t &) {}
};

TEST(Perceptron, RowKernelsMatchScalarReference)
{
    // Random branch streams from four threads, trained in a delayed
    // FIFO as the core resolves branches. Every prediction, every
    // history and, at the end, every weight (through the checkpoint
    // visit, which skips the row padding) must equal the reference's.
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (const unsigned entries : {4096u, 1000u}) {
        for (const unsigned bits : {1u, 7u, 8u, 28u, 31u, 32u, 63u}) {
            for (const int limit : {1, 64, 127}) {
                const std::string label =
                    std::to_string(entries) + " entries, " +
                    std::to_string(bits) + " bits, limit " +
                    std::to_string(limit);
                PerceptronConfig cfg;
                cfg.tableEntries = entries;
                cfg.historyBits = bits;
                cfg.weightLimit = limit;
                PerceptronPredictor p(cfg);
                ScalarPerceptron ref(cfg);

                // Six branches; four share two rows of the 1000-entry
                // table ((pc >> 2) % 1000 collides).
                const Addr pcs[] = {0x1000, 0x1fa0, 0x2000, 0x2fa0,
                                    0x40c4, 0x7ff8};
                struct Pending {
                    ThreadId tid;
                    Addr pc;
                    bool taken;
                    PerceptronOutput out;
                };
                // Branches resolve in order, up to `depth` behind the
                // predictions (as in a deep ROB, or runahead), so
                // updates train on sums predicted before the earlier
                // updates landed. That is what drives weights past
                // theta to the limit: every fourth window of 1024
                // steps is a burst of a new always-taken branch on
                // thread 0 alone, 255 deep, whose fresh row trains 255
                // times on a sum of 0.
                std::deque<Pending> pending;
                std::size_t depth = 0;
                bool burst = false;
                for (int step = 0; step < 40000; ++step) {
                    if (step % 1024 == 0) {
                        burst = step % 4096 == 0;
                        depth = burst ? 255 : rnd() % 64;
                    }
                    const std::uint64_t r = rnd();
                    const auto tid = static_cast<ThreadId>(burst ? 0 : r & 3);
                    const auto b = static_cast<unsigned>((r >> 2) % 6);
                    const Addr pc =
                        burst ? 0x100000 + 4 * 37 * Addr(step / 4096)
                              : pcs[b];
                    const auto out = p.predict(tid, pc);
                    const auto want = ref.predict(tid, pc);
                    ASSERT_EQ(out.sum, want.sum) << label << " step " << step;
                    ASSERT_EQ(out.taken, want.taken) << label;
                    ASSERT_EQ(out.historyBefore, want.historyBefore)
                        << label;
                    // Even branches are coin flips, odd ones copy a
                    // history bit, branch 4 is 90% taken.
                    bool taken = (r >> 8) & 1;
                    if (burst)
                        taken = true;
                    else if (b & 1)
                        taken = (want.historyBefore >> (b % bits)) & 1;
                    else if (b == 4)
                        taken = (r >> 8) % 10 != 0;
                    pending.push_back({tid, pc, taken, out});
                    while (pending.size() > depth) {
                        const Pending &u = pending.front();
                        p.update(u.tid, u.pc, u.taken, u.out);
                        ref.update(u.tid, u.pc, u.taken, u.out);
                        pending.pop_front();
                    }
                    ASSERT_EQ(p.history(tid), ref.history(tid)) << label;
                }

                WeightCollector got;
                p.ckptVisit(got);
                ASSERT_EQ(got.expected, ref.weights().size()) << label;
                ASSERT_EQ(got.weights, ref.weights()) << label;
                const auto saturated = std::count_if(
                    ref.weights().begin(), ref.weights().end(),
                    [&](std::int8_t w) { return std::abs(w) == limit; });
                EXPECT_GT(saturated, 0) << label;
            }
        }
    }
}

/** Biased branches at different rates must be learned to high accuracy. */
class PerceptronBias : public ::testing::TestWithParam<double> {};

TEST_P(PerceptronBias, TracksBiasedBranch)
{
    PerceptronPredictor p;
    const Addr pc = 0x7000;
    const double bias = GetParam();
    std::uint64_t x = 987654321;
    auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    };
    unsigned correct = 0, total = 0;
    for (int i = 0; i < 5000; ++i) {
        const bool dir = rnd() < bias;
        const auto out = p.predict(0, pc);
        if (i > 1000) {
            ++total;
            correct += (out.taken == dir);
        }
        p.update(0, pc, dir, out);
    }
    const double acc = static_cast<double>(correct) / total;
    const double expected = std::max(bias, 1.0 - bias);
    EXPECT_GT(acc, expected - 0.06);
}

INSTANTIATE_TEST_SUITE_P(Biases, PerceptronBias,
                         ::testing::Values(0.95, 0.9, 0.8, 0.2, 0.05));

} // namespace
} // namespace rat::branch
