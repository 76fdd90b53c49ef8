/**
 * @file
 * BBV-style phase profiling over the deterministic trace substrate.
 *
 * Sampled simulation (SimPoint-flavoured) needs to know where a
 * workload's dynamic stream changes behaviour. The profiler slices the
 * stream into fixed-size instruction windows, summarizes each window as
 * a basic-block-vector-like signature (a hashed histogram of executed
 * PC regions across all threads of the workload), and clusters the
 * signatures into phases with deterministic k-means. One representative
 * window per phase, weighted by cluster population, then stands in for
 * the whole span during detailed simulation.
 *
 * Everything here is a pure function of (streams, start, config): the
 * profiler only reads PCs, through the pure `TraceSource::scanPcs()`
 * (a chunk of a window at a time, so memory does not grow with the
 * window), k-means seeding is farthest-first from window 0 with
 * lowest-index tie-breaking, and no host randomness or clock is
 * consulted. The same inputs always produce the same phases — the
 * property that keeps sampled runs cacheable and farm-distributable.
 */

#ifndef RAT_TRACE_PHASE_HH
#define RAT_TRACE_PHASE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "trace/source.hh"

namespace rat::trace {

/**
 * Most windows one pass may profile. The signature matrix and the
 * k-means passes grow linearly with the span; this is far above any
 * useful plan (the defaults profile 64) and keeps a mistyped span from
 * asking for more memory than a host has.
 */
inline constexpr unsigned kMaxSpanWindows = 65536;

/** Parameters of one phase-profiling pass. */
struct PhaseConfig {
    /** Instructions per profiling window (per thread). */
    InstSeq window = 2048;
    /**
     * Number of consecutive windows profiled from the start point;
     * at most kMaxSpanWindows.
     */
    unsigned spanWindows = 64;
    /** Number of phases (k-means clusters) requested; >= 1. */
    unsigned phases = 4;
};

/** One representative window chosen for detailed simulation. */
struct PhaseSample {
    /** Window index (relative to the profiled span start). */
    unsigned windowIndex = 0;
    /** Cluster population: how many windows this sample stands for. */
    std::uint64_t weight = 0;
};

/** Result of profiling one workload span. */
struct PhaseProfile {
    /** Window size the profile was built with (per thread). */
    InstSeq window = 0;
    /** Number of windows profiled. */
    unsigned spanWindows = 0;
    /** Representative samples, ascending by windowIndex. */
    std::vector<PhaseSample> samples;
    /** Cluster id of every profiled window (size == spanWindows). */
    std::vector<unsigned> assignment;

    /** Sum of all sample weights (== spanWindows). */
    std::uint64_t totalWeight() const;
};

/**
 * Profile @p cfg.spanWindows windows of the workload formed by
 * @p streams, starting at per-thread instruction index @p start.
 *
 * Window w covers per-thread indices [start + w*window,
 * start + (w+1)*window) of *every* stream — the unit of sampling is a
 * workload slice, not a single thread, because the SMT core co-runs
 * all threads and the checkpoint walker fast-forwards them in
 * lockstep.
 *
 * Empty clusters are dropped, so the result can have fewer samples
 * than cfg.phases (a single-phase program yields one sample carrying
 * all the weight). cfg.phases is clamped to the number of windows.
 */
PhaseProfile profilePhases(const std::vector<const TraceSource *> &streams,
                           InstSeq start, const PhaseConfig &cfg);

} // namespace rat::trace

#endif // RAT_TRACE_PHASE_HH
