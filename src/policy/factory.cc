#include "policy/factory.hh"

#include "common/logging.hh"
#include "policy/dcra.hh"
#include "policy/fetch_policies.hh"
#include "policy/hill_climbing.hh"
#include "policy/mlp_aware.hh"

namespace rat::policy {

namespace {

using core::PolicyKind;

/**
 * Every technique, in PolicyKind order: its canonical `--policy`
 * spelling (also its report and cache-key name) and the shell-friendly
 * alias the CLI accepts.
 */
constexpr NameRow<PolicyKind> kPolicyKinds[] = {
    {PolicyKind::RoundRobin, "RR"},
    {PolicyKind::Icount, "ICOUNT"},
    {PolicyKind::Stall, "STALL"},
    {PolicyKind::Flush, "FLUSH"},
    {PolicyKind::Dcra, "DCRA"},
    {PolicyKind::HillClimbing, "HillClimbing", "HC"},
    {PolicyKind::Rat, "RaT", "RAT"},
    {PolicyKind::RatDcra, "RaT+DCRA", "RATDCRA"},
    {PolicyKind::MlpAware, "MLP"},
};
static_assert(coversInOrder(kPolicyKinds, PolicyKind::MlpAware));

} // namespace

std::unique_ptr<core::SchedulingPolicy>
makePolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::RoundRobin:
        return std::make_unique<RoundRobinPolicy>();
      case PolicyKind::Icount:
      case PolicyKind::Rat: // RaT uses ICOUNT priority (Section 3)
        return std::make_unique<IcountPolicy>();
      case PolicyKind::Stall:
        return std::make_unique<StallPolicy>();
      case PolicyKind::Flush:
        return std::make_unique<FlushPolicy>();
      case PolicyKind::Dcra:
        return std::make_unique<DcraPolicy>();
      case PolicyKind::RatDcra:
        // The future-work hybrid of Section 5.2: the core runs runahead
        // while DCRA gates over-consuming threads.
        return std::make_unique<DcraPolicy>();
      case PolicyKind::HillClimbing:
        return std::make_unique<HillClimbingPolicy>();
      case PolicyKind::MlpAware:
        return std::make_unique<MlpAwarePolicy>();
    }
    panic("unknown policy kind");
}

std::optional<core::PolicyKind>
parsePolicyKind(const std::string &name)
{
    return parseName(kPolicyKinds, name);
}

const char *
policyKindName(core::PolicyKind kind)
{
    return nameOf(kPolicyKinds, kind);
}

std::vector<std::string>
policyKindNames()
{
    std::vector<std::string> names;
    for (const auto &row : kPolicyKinds)
        names.emplace_back(row.name);
    return names;
}

} // namespace rat::policy
