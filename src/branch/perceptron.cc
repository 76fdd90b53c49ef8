#include "branch/perceptron.hh"

#include <array>
#include <cstdlib>
#include <cstring>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace rat::branch {

namespace {

/**
 * Weights per step of the row-wide kernels: a row is padded to a
 * multiple of this, the width of one 128-bit vector of int8 lanes.
 */
constexpr unsigned kLanes = 16;
/** Longest row: the bias plus 63 history weights. */
constexpr unsigned kMaxStride = 64;

/** kSpread[b]: byte i is 0xFF where bit i of b is set, else 0. */
constexpr std::array<std::uint64_t, 256> kSpread = [] {
    std::array<std::uint64_t, 256> t{};
    for (unsigned b = 0; b < 256; ++b)
        for (unsigned i = 0; i < 8; ++i)
            if ((b >> i) & 1)
                t[b] |= std::uint64_t{0xFF} << (8 * i);
    return t;
}();

/**
 * One byte per input of a row: out[j] is -1 where bit j of @p bits is
 * set, else 0, for j < @p stride (a multiple of kLanes). Each step
 * stores one whole vector, which the kernel then loads back whole.
 */
void
spread(std::uint64_t bits, unsigned stride, std::int8_t *out)
{
    for (unsigned k = 0; k < stride / kLanes; ++k) {
        const std::uint64_t half[2] = {
            kSpread[(bits >> (kLanes * k)) & 0xFF],
            kSpread[(bits >> (kLanes * k + 8)) & 0xFF]};
        std::memcpy(out + kLanes * k, half, kLanes);
    }
}

/**
 * The inputs of a row as bits: input 0 is the bias (always +1), input
 * i + 1 is history bit i. A set bit is +1, a clear one -1.
 */
std::uint64_t
inputsOf(std::uint64_t hist)
{
    return (hist << 1) | 1;
}

} // namespace

PerceptronPredictor::PerceptronPredictor(const PerceptronConfig &config)
    : config_(config)
{
    if (config_.historyBits == 0 || config_.historyBits > 63)
        fatal("perceptron history length %u out of range [1,63]",
              config_.historyBits);
    if (config_.tableEntries == 0 ||
        config_.tableEntries > kMaxPerceptronEntries)
        fatal("perceptron tableEntries %u out of range [1,%u]",
              config_.tableEntries, kMaxPerceptronEntries);
    // The row-wide kernels negate and step weights in int8 lanes, so
    // every weight must stay within [-127, 127].
    if (config_.weightLimit < 1 || config_.weightLimit > 127)
        fatal("perceptron weightLimit %d out of range [1,127]",
              config_.weightLimit);
    theta_ = static_cast<int>(1.93 * config_.historyBits + 14);
    stride_ = static_cast<unsigned>(
        divCeil(config_.historyBits + 1, kLanes) * kLanes);
    indexMask_ = isPowerOf2(config_.tableEntries)
                     ? config_.tableEntries - 1
                     : 0;
    weights_.assign(static_cast<std::size_t>(config_.tableEntries) * stride_,
                    0);
}

std::int8_t *
PerceptronPredictor::row(Addr pc)
{
    // Branch PCs are word-aligned; fold high bits in to spread indices.
    const std::uint64_t h = (pc >> 2) ^ (pc >> 13);
    const std::uint64_t index =
        indexMask_ != 0 ? h & indexMask_ : h % config_.tableEntries;
    return &weights_[index * stride_];
}

std::int32_t
PerceptronPredictor::dot(const std::int8_t *w, std::uint64_t hist) const
{
    // y = sum of w[j] * x[j] with x[j] = +1 or -1. Where x[j] = -1,
    // neg[j] = -1 and (w ^ neg) - neg = -w; elsewhere it is w. Padding
    // weights are 0 and add nothing. |w| <= 127, so -w fits in int8
    // and a row of at most 64 terms fits in int16.
    alignas(kLanes) std::int8_t neg[kMaxStride];
    spread(~inputsOf(hist), stride_, neg);
    std::int16_t y = 0;
    for (unsigned j = 0; j < stride_; ++j)
        y = static_cast<std::int16_t>(
            y + static_cast<std::int8_t>((w[j] ^ neg[j]) - neg[j]));
    return y;
}

void
PerceptronPredictor::train(std::int8_t *w, std::uint64_t hist, bool taken)
{
    // Each of the historyBits + 1 weights steps by t * x[j]: up where
    // the input agrees with the outcome, down where it does not,
    // saturating at +-weightLimit. Padding lanes are in neither mask.
    const unsigned inputs = config_.historyBits + 1;
    const std::uint64_t valid =
        inputs == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << inputs) - 1;
    const std::uint64_t agree = taken ? inputsOf(hist) : ~inputsOf(hist);
    alignas(kLanes) std::int8_t up[kMaxStride];
    alignas(kLanes) std::int8_t down[kMaxStride];
    spread(valid & agree, stride_, up);
    spread(valid & ~agree, stride_, down);
    // The lanes work on a copy: stores through an int8 pointer may
    // alias anything, which keeps the compiler from vectorizing a loop
    // that writes the row in place.
    const auto limit = static_cast<std::int8_t>(config_.weightLimit);
    const unsigned n = stride_;
    alignas(kLanes) std::int8_t v[kMaxStride];
    std::memcpy(v, w, n);
    for (unsigned j = 0; j < n; ++j) {
        // Masks are -1 or 0: subtracting a -1 steps up, adding one
        // steps down, and a weight at its limit stays.
        const std::int8_t inc = v[j] < limit ? up[j] : 0;
        const std::int8_t dec = v[j] > -limit ? down[j] : 0;
        v[j] = static_cast<std::int8_t>(v[j] - inc + dec);
    }
    std::memcpy(w, v, n);
}

PerceptronOutput
PerceptronPredictor::predict(ThreadId tid, Addr pc)
{
    RAT_ASSERT(tid < kMaxThreads, "bad thread id %u", tid);
    PerceptronOutput out;
    out.historyBefore = history_[tid];
    out.sum = dot(row(pc), out.historyBefore);
    out.taken = out.sum >= 0;
    // Speculative history update with the *predicted* direction.
    history_[tid] =
        ((history_[tid] << 1) | (out.taken ? 1 : 0)) & historyMask();
    ++lookups_;
    return out;
}

void
PerceptronPredictor::update(ThreadId tid, Addr pc, bool taken,
                            const PerceptronOutput &out)
{
    RAT_ASSERT(tid < kMaxThreads, "bad thread id %u", tid);
    if (taken != out.taken) {
        ++mispredicts_;
        // Repair the speculative history: re-apply with the real outcome.
        history_[tid] =
            ((out.historyBefore << 1) | (taken ? 1 : 0)) & historyMask();
    }

    const bool needs_training =
        taken != out.taken || std::abs(out.sum) <= theta_;
    if (needs_training)
        train(row(pc), out.historyBefore, taken);
}

void
PerceptronPredictor::restoreHistory(ThreadId tid, std::uint64_t history)
{
    RAT_ASSERT(tid < kMaxThreads, "bad thread id %u", tid);
    history_[tid] = history & historyMask();
}

void
PerceptronPredictor::resetStats()
{
    lookups_ = 0;
    mispredicts_ = 0;
}

} // namespace rat::branch
