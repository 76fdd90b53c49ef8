/**
 * @file
 * Architectural checkpoint codec ("ratck3") for sampled simulation and
 * for campaign cells that share one prewarm walk (`restoreOrWalk`).
 *
 * A checkpoint captures the *functional post-prewarm* state of one
 * simulation: trace positions, branch predictor, BTB, return-address
 * stacks, all three cache levels and the runahead engine's per-thread
 * episode state.
 * It deliberately captures nothing of the timing pipeline — encoding is
 * only legal when the pipeline is provably empty (no in-flight
 * instructions, no outstanding fills, no runahead episodes), which is
 * exactly the state `SmtCore::prewarm` leaves behind. That restriction
 * is what lets one checkpoint be restored into simulators with
 * *different* policy / ROB configurations: the walk that builds it
 * never touches the structures those knobs size.
 *
 * Drift-proofing: every component's state is enumerated by one
 * `ckptVisit(IO&)` member template that drives both encode and decode,
 * and the blob embeds the digest subsystem's `StateHasher` hash of the
 * source core. `restore()` recomputes that hash on the restored target
 * and refuses on mismatch — so the checkpointed state and the digested
 * state cannot silently drift apart, and a failed restore falls back
 * to a (bit-identical) fresh functional walk instead of corrupting a
 * run.
 *
 * Format (all integers u64 little-endian):
 *   "ratck3" magic | visit(core, mem, engine) fields | StateHasher digest
 * The engine's suppressed-load sets are stored as a count followed by
 * the elements in ascending order.
 */

#ifndef RAT_SIM_CHECKPOINT_HH
#define RAT_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace rat::core {
class SmtCore;
}
namespace rat::mem {
class MemoryHierarchy;
}

namespace rat::sim {

struct SimConfig;
struct SimResult;
class Simulator;

/**
 * Stateless encoder/decoder. A class (not free functions) so it can be
 * a friend of SmtCore, mirroring check::StateHasher.
 */
class CheckpointCodec
{
  public:
    /**
     * Leading bytes of every blob. Bump it whenever the layout
     * changes: it also names the format in fileKey() and in the
     * extension of checkpoint files on disk.
     */
    static constexpr char kMagic[] = "ratck3";

    /**
     * Serialize @p sim's functional state. Returns the empty string if
     * the pipeline is not empty (in-flight instructions, outstanding
     * fills or an active runahead episode) — checkpoints are only
     * defined at functional fast-forward points.
     */
    static std::string encode(Simulator &sim);

    /**
     * Restore @p blob into a freshly constructed @p sim (before its
     * first run()). Returns false — leaving no partial state the
     * caller may rely on; fall back to a fresh prewarm walk — on a
     * malformed blob, a geometry mismatch, or an embedded-digest
     * mismatch. @p error (optional) receives a diagnostic.
     */
    static bool restore(Simulator &sim, const std::string &blob,
                        std::string *error = nullptr);

    /**
     * Identity of the checkpoint a given configuration needs at trace
     * position @p position: a hash over everything the functional walk
     * (and the restore-time digest) depends on — programs, seed,
     * thread count, predictor and memory geometry, register-file sizes,
     * the position itself and the format (kMagic). Deliberately
     * *excludes* the scheduling policy, runahead variant and ROB size,
     * so one walk serves a whole policy sweep.
     */
    static std::uint64_t fileKey(const SimConfig &cfg,
                                 const std::vector<std::string> &programs,
                                 InstSeq position);

  private:
    /**
     * The single state enumeration encode and decode share (friendship
     * with SmtCore covers member templates). Instantiated only in
     * checkpoint.cc, once per IO type.
     */
    template <typename IO>
    static void visit(IO &io, core::SmtCore &core,
                      mem::MemoryHierarchy &mem);
};

/**
 * Identity of @p cfg's post-prewarm state: the file key at its prewarm
 * position. Runs with equal identities start from the same state, so
 * one walk can serve them all.
 */
std::uint64_t prewarmIdentity(const SimConfig &cfg,
                              const std::vector<std::string> &programs);

/** A post-prewarm checkpoint and the prewarm identity it holds. */
struct PrewarmCheckpoint {
    std::uint64_t identity = 0;
    std::string blob; ///< checkpoint bytes; empty = none
};

/**
 * Run @p cfg, taking its post-prewarm state from @p ckpt when it holds
 * @p cfg's identity.
 *
 * Such a blob is restored into a Simulator built with
 * `prewarmInsts = 0`. Otherwise, or when restore refuses the blob (with
 * a warning), the run walks its own prewarm and replaces @p ckpt with
 * that walk's state, so the caller can hand it to the next run of the
 * same identity. Either way the result is bit-identical to
 * `Simulator(cfg, programs).run()`. @p restored tells which happened.
 */
SimResult restoreOrWalk(const SimConfig &cfg,
                        const std::vector<std::string> &programs,
                        PrewarmCheckpoint &ckpt, bool &restored);

} // namespace rat::sim

#endif // RAT_SIM_CHECKPOINT_HH
