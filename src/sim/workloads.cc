#include "sim/workloads.hh"

#include <iterator>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "trace/profile.hh"

namespace rat::sim {

Workload
Workload::fromPrograms(std::vector<std::string> programs)
{
    Workload w;
    std::ostringstream name;
    bool first = true;
    for (const std::string &p : programs) {
        if (!first)
            name << ",";
        name << p;
        first = false;
    }
    w.name = name.str();
    w.programs = std::move(programs);
    return w;
}

namespace {

Workload
make(std::initializer_list<const char *> programs)
{
    std::vector<std::string> names;
    names.reserve(programs.size());
    for (const char *p : programs) {
        RAT_ASSERT(trace::isSpec2000(p), "unknown program '%s'", p);
        names.emplace_back(p);
    }
    return Workload::fromPrograms(std::move(names));
}

/** One Table 2 column: its group, its name and its workloads. */
struct GroupRow {
    WorkloadGroup group;
    const char *name;
    std::vector<Workload> workloads;
};

// Table 2, verbatim, in WorkloadGroup order.
const GroupRow kGroups[] = {
    {WorkloadGroup::ILP2, "ILP2", {
        make({"apsi", "eon"}),      make({"apsi", "gcc"}),
        make({"bzip2", "vortex"}),  make({"fma3d", "gcc"}),
        make({"fma3d", "mesa"}),    make({"gcc", "mgrid"}),
        make({"gzip", "bzip2"}),    make({"gzip", "vortex"}),
        make({"mgrid", "galgel"}),  make({"wupwise", "gcc"}),
    }},
    {WorkloadGroup::MIX2, "MIX2", {
        make({"applu", "vortex"}),  make({"art", "gzip"}),
        make({"bzip2", "mcf"}),     make({"equake", "bzip2"}),
        make({"galgel", "equake"}), make({"lucas", "crafty"}),
        make({"mcf", "eon"}),       make({"swim", "mgrid"}),
        make({"twolf", "apsi"}),    make({"wupwise", "twolf"}),
    }},
    {WorkloadGroup::MEM2, "MEM2", {
        make({"applu", "art"}),   make({"art", "mcf"}),
        make({"art", "twolf"}),   make({"art", "vpr"}),
        make({"equake", "swim"}), make({"mcf", "twolf"}),
        make({"parser", "mcf"}),  make({"swim", "mcf"}),
        make({"swim", "vpr"}),    make({"twolf", "swim"}),
    }},
    {WorkloadGroup::ILP4, "ILP4", {
        make({"apsi", "eon", "fma3d", "gcc"}),
        make({"apsi", "eon", "gzip", "vortex"}),
        make({"apsi", "gap", "wupwise", "perl"}),
        make({"crafty", "fma3d", "apsi", "vortex"}),
        make({"fma3d", "gcc", "gzip", "vortex"}),
        make({"gzip", "bzip2", "eon", "gcc"}),
        make({"mesa", "gzip", "fma3d", "bzip2"}),
        make({"wupwise", "gcc", "mgrid", "galgel"}),
    }},
    {WorkloadGroup::MIX4, "MIX4", {
        make({"ammp", "applu", "apsi", "eon"}),
        make({"art", "gap", "twolf", "crafty"}),
        make({"art", "mcf", "fma3d", "gcc"}),
        make({"gzip", "twolf", "bzip2", "mcf"}),
        make({"lucas", "crafty", "equake", "bzip2"}),
        make({"mcf", "mesa", "lucas", "gzip"}),
        make({"swim", "fma3d", "vpr", "bzip2"}),
        make({"swim", "twolf", "gzip", "vortex"}),
    }},
    {WorkloadGroup::MEM4, "MEM4", {
        make({"art", "mcf", "swim", "twolf"}),
        make({"art", "mcf", "vpr", "swim"}),
        make({"art", "twolf", "equake", "mcf"}),
        make({"equake", "parser", "mcf", "lucas"}),
        make({"equake", "vpr", "applu", "twolf"}),
        make({"mcf", "twolf", "vpr", "parser"}),
        make({"parser", "applu", "swim", "twolf"}),
        make({"swim", "applu", "art", "mcf"}),
    }},
};
static_assert(std::size(kGroups) ==
              static_cast<std::size_t>(WorkloadGroup::MEM4) + 1);

const GroupRow &
rowOf(WorkloadGroup group)
{
    const auto i = static_cast<std::size_t>(group);
    RAT_ASSERT(i < std::size(kGroups) && kGroups[i].group == group,
               "bad workload group");
    return kGroups[i];
}

} // namespace

const std::vector<WorkloadGroup> &
allGroups()
{
    static const std::vector<WorkloadGroup> groups = [] {
        std::vector<WorkloadGroup> all;
        for (const GroupRow &row : kGroups)
            all.push_back(row.group);
        return all;
    }();
    return groups;
}

const char *
groupName(WorkloadGroup group)
{
    return rowOf(group).name;
}

std::optional<WorkloadGroup>
parseGroup(const std::string &name)
{
    for (const GroupRow &row : kGroups) {
        if (name == row.name)
            return row.group;
    }
    return std::nullopt;
}

unsigned
groupThreads(WorkloadGroup group)
{
    return static_cast<unsigned>(
        rowOf(group).workloads.front().programs.size());
}

const std::vector<Workload> &
workloadsOf(WorkloadGroup group)
{
    return rowOf(group).workloads;
}

const std::vector<std::string> &
allPrograms()
{
    static const std::vector<std::string> programs = [] {
        std::set<std::string> set;
        for (const WorkloadGroup g : allGroups()) {
            for (const Workload &w : workloadsOf(g))
                set.insert(w.programs.begin(), w.programs.end());
        }
        return std::vector<std::string>(set.begin(), set.end());
    }();
    return programs;
}

} // namespace rat::sim
