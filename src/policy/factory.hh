/**
 * @file
 * Factory mapping a PolicyKind to a concrete scheduling-policy object,
 * and the techniques' names (one table in factory.cc).
 *
 * Note that Runahead Threads is not itself a fetch policy: RaT runs on
 * top of plain ICOUNT priority (the core performs the mode switching),
 * so PolicyKind::Rat maps to an IcountPolicy instance.
 */

#ifndef RAT_POLICY_FACTORY_HH
#define RAT_POLICY_FACTORY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/policy_iface.hh"

namespace rat::policy {

/** Create the scheduling policy object for @p kind. */
std::unique_ptr<core::SchedulingPolicy> makePolicy(core::PolicyKind kind);

/**
 * Parse a technique name or alias as accepted by `ratsim --policy`.
 * Returns std::nullopt for unknown names.
 */
std::optional<core::PolicyKind> parsePolicyKind(const std::string &name);

/** Canonical CLI spelling of @p kind (round-trips via parsePolicyKind). */
const char *policyKindName(core::PolicyKind kind);

/** Canonical names of every technique, in PolicyKind order. */
std::vector<std::string> policyKindNames();

} // namespace rat::policy

#endif // RAT_POLICY_FACTORY_HH
