/**
 * @file
 * Runtime-selectable runahead efficiency variants.
 *
 * A variant is the *episode policy* of the RunaheadEngine: it decides
 * which long-latency loads may start a runahead episode and how far an
 * episode may run. The mechanism itself (checkpoint, INV folding,
 * pseudo-retirement, recovery) is shared by all variants.
 */

#ifndef RAT_RUNAHEAD_VARIANT_HH
#define RAT_RUNAHEAD_VARIANT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/names.hh"

namespace rat::runahead {

/** Which runahead episode policy the engine runs. */
enum class RaVariant : std::uint8_t {
    /** The paper's Runahead Threads, unmodified (HPCA 2008). */
    Classic,
    /**
     * Classic entry, but an episode may run at most
     * `RatConfig::cappedMaxCycles` cycles past its entry point — a
     * max-episode-distance throttle in the spirit of bounding wasted
     * speculative work (cf. MLP-aware windows, R3-DLA distance caps).
     */
    Capped,
    /**
     * Classic episodes, gated by a per-PC usefulness predictor: a load
     * whose past episodes generated no prefetches is suppressed from
     * re-triggering runahead (the efficiency concern of Mutlu et
     * al.'s useless-runahead elimination).
     */
    UselessFilter,
};

/**
 * Every variant, in declaration order, as `--ra-variant`, reports and
 * cache keys spell it.
 */
inline constexpr NameRow<RaVariant> kRaVariants[] = {
    {RaVariant::Classic, "classic"},
    {RaVariant::Capped, "capped"},
    {RaVariant::UselessFilter, "useless-filter", "uselessfilter"},
};
static_assert(coversInOrder(kRaVariants, RaVariant::UselessFilter));

/** Canonical CLI/JSON spelling of a variant. */
inline const char *
raVariantName(RaVariant variant)
{
    return nameOf(kRaVariants, variant);
}

/** Parse a variant name as accepted by `--ra-variant`. */
inline std::optional<RaVariant>
parseRaVariant(const std::string &name)
{
    return parseName(kRaVariants, name);
}

} // namespace rat::runahead

#endif // RAT_RUNAHEAD_VARIANT_HH
