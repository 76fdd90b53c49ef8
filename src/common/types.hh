/**
 * @file
 * Fundamental scalar types shared by every ratsim module.
 *
 * The simulator models discrete processor cycles; all time is expressed in
 * units of `Cycle`. Memory addresses are byte addresses in a flat 64-bit
 * space. Hardware thread contexts are identified by a small dense integer.
 */

#ifndef RAT_COMMON_TYPES_HH
#define RAT_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace rat {

/** Simulated clock cycle count. */
using Cycle = std::uint64_t;

/** Byte address in the simulated flat 64-bit address space. */
using Addr = std::uint64_t;

/** Hardware thread (context) identifier, dense starting at 0. */
using ThreadId = std::uint8_t;

/** Architectural register index within one register class (0..31). */
using ArchReg = std::uint8_t;

/** Physical register index within one register class's file. */
using PhysReg = std::uint16_t;

/** Monotonic per-thread dynamic instruction sequence number. */
using InstSeq = std::uint64_t;

/** Sentinel for "no cycle" / "not scheduled". */
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/** @p n cycles after @p at, saturating at kNoCycle instead of wrapping. */
constexpr Cycle
cycleAfter(Cycle at, Cycle n)
{
    return n < kNoCycle - at ? at + n : kNoCycle;
}

/** Sentinel for an unmapped / invalid physical register. */
inline constexpr PhysReg kNoPhysReg = std::numeric_limits<PhysReg>::max();

/** Sentinel for an invalid thread. */
inline constexpr ThreadId kNoThread = std::numeric_limits<ThreadId>::max();

/** Number of architectural registers per class (INT or FP), Alpha-like. */
inline constexpr unsigned kNumArchRegs = 32;

/** Maximum number of hardware threads the core supports. */
inline constexpr unsigned kMaxThreads = 8;

/**
 * Largest ROB, rename-register file or per-thread runahead cache, in
 * entries, a run may ask for. Register numbers 0..65531 stay clear of
 * the 16-bit rename-map sentinels (kMapInv 0xFFFD, kMapArch 0xFFFE,
 * kNoPhysReg); Table 1's largest structure has 512 entries.
 */
inline constexpr unsigned kMaxStructureEntries = 65532;

} // namespace rat

#endif // RAT_COMMON_TYPES_HH
