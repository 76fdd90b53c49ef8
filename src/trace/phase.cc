/**
 * @file
 * Deterministic BBV phase profiler: windowed PC-region signatures plus
 * farthest-first-seeded Lloyd k-means. See phase.hh for the contract.
 */

#include "trace/phase.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace rat::trace {
namespace {

/** Histogram buckets per thread in a window signature. */
constexpr unsigned kBucketsPerThread = 32;

/**
 * PCs scanned at a time: a window's histogram is built in chunks of
 * this many, so memory does not grow with the window.
 */
constexpr std::size_t kScanChunk = 1024;

/** Fibonacci-hash a PC line into a signature bucket. */
unsigned
bucketOf(Addr pc)
{
    const std::uint64_t h = (pc >> 6) * 0x9E3779B97F4A7C15ULL;
    return static_cast<unsigned>(h >> 59); // top 5 bits -> 0..31
}

/** Squared Euclidean distance between two signatures. */
double
dist2(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = a[i] - b[i];
        d += x * x;
    }
    return d;
}

} // namespace

std::uint64_t
PhaseProfile::totalWeight() const
{
    std::uint64_t w = 0;
    for (const PhaseSample &s : samples)
        w += s.weight;
    return w;
}

PhaseProfile
profilePhases(const std::vector<const TraceSource *> &streams, InstSeq start,
              const PhaseConfig &cfg)
{
    PhaseProfile out;
    out.window = cfg.window;
    out.spanWindows = cfg.spanWindows;
    if (streams.empty() || cfg.window == 0 || cfg.spanWindows == 0)
        return out;
    if (cfg.spanWindows > kMaxSpanWindows)
        fatal("phase span of %u windows exceeds the limit of %u",
              cfg.spanWindows, kMaxSpanWindows);

    // --- build one L1-normalized signature per window --------------------
    // Concatenated per-thread histograms, normalized per thread block so a
    // fast thread cannot drown out a slow one in the distance metric.
    const std::size_t dims = streams.size() * kBucketsPerThread;
    std::vector<std::vector<double>> sig(cfg.spanWindows,
                                         std::vector<double>(dims, 0.0));
    std::array<Addr, kScanChunk> pcs;
    for (unsigned w = 0; w < cfg.spanWindows; ++w) {
        const InstSeq lo = start + InstSeq{w} * cfg.window;
        for (std::size_t t = 0; t < streams.size(); ++t) {
            std::array<std::uint64_t, kBucketsPerThread> count{};
            for (InstSeq done = 0; done < cfg.window; done += kScanChunk) {
                const std::size_t n = static_cast<std::size_t>(
                    std::min<InstSeq>(kScanChunk, cfg.window - done));
                streams[t]->scanPcs(lo + done, n, pcs.data());
                for (std::size_t i = 0; i < n; ++i)
                    ++count[bucketOf(pcs[i])];
            }
            double *block = sig[w].data() + t * kBucketsPerThread;
            for (unsigned b = 0; b < kBucketsPerThread; ++b)
                block[b] = static_cast<double>(count[b]) /
                           static_cast<double>(cfg.window);
        }
    }

    // --- farthest-first seeding ------------------------------------------
    const unsigned k =
        std::min(cfg.phases == 0 ? 1u : cfg.phases, cfg.spanWindows);
    std::vector<unsigned> seeds;
    seeds.push_back(0);
    std::vector<double> minD(cfg.spanWindows,
                             std::numeric_limits<double>::infinity());
    while (seeds.size() < k) {
        for (unsigned w = 0; w < cfg.spanWindows; ++w)
            minD[w] = std::min(minD[w], dist2(sig[w], sig[seeds.back()]));
        unsigned best = 0;
        double bestD = -1.0;
        for (unsigned w = 0; w < cfg.spanWindows; ++w) {
            if (minD[w] > bestD) { // strict: ties keep the lowest index
                bestD = minD[w];
                best = w;
            }
        }
        if (bestD <= 0.0)
            break; // fewer distinct signatures than clusters requested
        seeds.push_back(best);
    }

    std::vector<std::vector<double>> centroid;
    centroid.reserve(seeds.size());
    for (unsigned s : seeds)
        centroid.push_back(sig[s]);

    // --- Lloyd iterations -------------------------------------------------
    std::vector<unsigned> assign(cfg.spanWindows, 0);
    for (unsigned iter = 0; iter < 25; ++iter) {
        bool changed = false;
        for (unsigned w = 0; w < cfg.spanWindows; ++w) {
            unsigned best = 0;
            double bestD = std::numeric_limits<double>::infinity();
            for (std::size_t c = 0; c < centroid.size(); ++c) {
                const double d = dist2(sig[w], centroid[c]);
                if (d < bestD) { // strict: ties keep the lowest cluster
                    bestD = d;
                    best = static_cast<unsigned>(c);
                }
            }
            if (assign[w] != best) {
                assign[w] = best;
                changed = true;
            }
        }
        if (!changed && iter > 0)
            break;
        for (std::size_t c = 0; c < centroid.size(); ++c) {
            std::fill(centroid[c].begin(), centroid[c].end(), 0.0);
            std::uint64_t n = 0;
            for (unsigned w = 0; w < cfg.spanWindows; ++w) {
                if (assign[w] != c)
                    continue;
                ++n;
                for (std::size_t i = 0; i < dims; ++i)
                    centroid[c][i] += sig[w][i];
            }
            if (n == 0)
                continue; // keep the stale centroid; cluster dropped below
            for (std::size_t i = 0; i < dims; ++i)
                centroid[c][i] /= static_cast<double>(n);
        }
    }

    // --- representatives: closest window to each non-empty centroid ------
    std::vector<PhaseSample> samples;
    std::vector<unsigned> repOf(centroid.size(),
                                std::numeric_limits<unsigned>::max());
    for (std::size_t c = 0; c < centroid.size(); ++c) {
        std::uint64_t weight = 0;
        unsigned rep = 0;
        double repD = std::numeric_limits<double>::infinity();
        for (unsigned w = 0; w < cfg.spanWindows; ++w) {
            if (assign[w] != c)
                continue;
            ++weight;
            const double d = dist2(sig[w], centroid[c]);
            if (d < repD) { // strict: ties keep the lowest window
                repD = d;
                rep = w;
            }
        }
        if (weight == 0)
            continue;
        repOf[c] = rep;
        samples.push_back(PhaseSample{rep, weight});
    }
    std::sort(samples.begin(), samples.end(),
              [](const PhaseSample &a, const PhaseSample &b) {
                  return a.windowIndex < b.windowIndex;
              });

    // Renumber assignments to match the (sorted, empty-dropped) samples so
    // assignment[w] indexes out.samples directly.
    std::vector<unsigned> newId(centroid.size(), 0);
    for (std::size_t c = 0; c < centroid.size(); ++c) {
        if (repOf[c] == std::numeric_limits<unsigned>::max())
            continue;
        for (std::size_t s = 0; s < samples.size(); ++s) {
            if (samples[s].windowIndex == repOf[c])
                newId[c] = static_cast<unsigned>(s);
        }
    }
    for (unsigned &a : assign)
        a = newId[a];

    out.samples = std::move(samples);
    out.assignment = std::move(assign);
    return out;
}

} // namespace rat::trace
