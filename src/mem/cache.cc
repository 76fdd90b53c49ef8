#include "mem/cache.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace rat::mem {

Cache::Cache(const CacheConfig &config) : config_(config)
{
    if (!isPowerOf2(config.lineBytes))
        fatal("cache '%s': line size %u not a power of two",
              config.name.c_str(), config.lineBytes);
    if (config.ways == 0 || config.sizeBytes == 0)
        fatal("cache '%s': zero ways or size", config.name.c_str());
    const std::uint64_t num_lines = config.sizeBytes / config.lineBytes;
    if (num_lines % config.ways != 0)
        fatal("cache '%s': %llu lines not divisible by %u ways",
              config.name.c_str(),
              static_cast<unsigned long long>(num_lines), config.ways);
    numSets_ = static_cast<unsigned>(num_lines / config.ways);
    if (!isPowerOf2(numSets_))
        fatal("cache '%s': %u sets not a power of two", config.name.c_str(),
              numSets_);
    lineShift_ = floorLog2(config.lineBytes);
    lineMask_ = config.lineBytes - 1;
    setMask_ = numSets_ - 1;
    lines_.resize(static_cast<std::size_t>(numSets_) * config.ways);
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    const Addr tag = tagOf(addr);
    const Line *set = setBase(addr);
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return &set[w];
    }
    return nullptr;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    // Safe const_cast direction: *this is non-const here, so shedding
    // the const the delegated-to overload added is well-defined.
    return const_cast<Line *>(std::as_const(*this).findLine(addr));
}

LookupResult
Cache::probe(Addr addr, Cycle now) const
{
    const Line *line = findLine(addr);
    if (!line)
        return LookupResult::Miss;
    return line->readyAt > now ? LookupResult::HitPending
                               : LookupResult::Hit;
}

LookupResult
Cache::access(Addr addr, Cycle now, Cycle &ready_at)
{
    Line *line = findLine(addr);
    if (!line) {
        ++misses_;
        return LookupResult::Miss;
    }
    line->lastUse = now;
    if (line->readyAt > now) {
        ready_at = line->readyAt;
        // A merged access is neither a fresh miss nor a clean hit; count
        // it as a hit for hit-rate purposes (it found the line present).
        ++hits_;
        return LookupResult::HitPending;
    }
    ready_at = now;
    ++hits_;
    return LookupResult::Hit;
}

bool
Cache::install(Addr addr, Cycle now, Cycle ready_at, Addr &evicted)
{
    std::size_t slot = 0;
    return installSlot(addr, now, ready_at, evicted, slot);
}

bool
Cache::installSlot(Addr addr, Cycle now, Cycle ready_at, Addr &evicted,
                   std::size_t &slot)
{
    // Single way-walk over the set: find a present line and track the
    // replacement victim (first invalid way, else LRU) in one pass, so
    // the set base and tag are computed once per install.
    const Addr tag = tagOf(addr);
    Line *set = setBase(addr);
    Line *invalid = nullptr;
    Line *lru = &set[0];
    for (unsigned w = 0; w < config_.ways; ++w) {
        Line &l = set[w];
        if (l.valid && l.tag == tag) {
            // Re-install of a present line (e.g. refresh): update fill
            // time only if it makes the line available earlier.
            l.lastUse = now;
            l.readyAt = std::min(l.readyAt, ready_at);
            slot = static_cast<std::size_t>(&l - lines_.data());
            return false;
        }
        if (!l.valid) {
            if (!invalid)
                invalid = &l;
        } else if (l.lastUse < lru->lastUse) {
            lru = &l;
        }
    }
    Line *victim = invalid ? invalid : lru;
    const bool had_victim = victim->valid;
    if (had_victim) {
        ++evictions_;
        evicted = victim->tag << lineShift_;
    }
    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->lastUse = now;
    victim->readyAt = ready_at;
    slot = static_cast<std::size_t>(victim - lines_.data());
    return had_victim;
}

void
Cache::invalidate(Addr addr)
{
    if (Line *line = findLine(addr))
        line->valid = false;
}

void
Cache::flushAll()
{
    for (auto &line : lines_)
        line.valid = false;
}

void
Cache::resetStats()
{
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

MshrFile::MshrFile(unsigned entries) : entries_(entries)
{
    RAT_ASSERT(entries > 0, "MSHR file needs at least one entry");
    active_.reserve(entries);
    // Power-of-two index at most half full keeps probe chains short.
    tableSize_ = 8;
    while (tableSize_ < 2 * entries_)
        tableSize_ *= 2;
    table_.assign(tableSize_, kEmptySlot);
}

std::uint32_t
MshrFile::findSlot(Addr line_addr) const
{
    std::uint64_t h = line_addr * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    std::uint32_t i = static_cast<std::uint32_t>(h & (tableSize_ - 1));
    while (table_[i] != kEmptySlot &&
           active_[table_[i]].lineAddr != line_addr) {
        i = (i + 1) & (tableSize_ - 1);
    }
    return i;
}

void
MshrFile::reindex() const
{
    std::fill(table_.begin(), table_.end(), kEmptySlot);
    minComplete_ = kNoCycle;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(active_.size()); ++i) {
        minComplete_ = std::min(minComplete_, active_[i].completeAt);
        const std::uint32_t slot = findSlot(active_[i].lineAddr);
        if (table_[slot] == kEmptySlot)
            table_[slot] = i; // keep the oldest record of a line
    }
}

void
MshrFile::expire(Cycle now) const
{
    // Fast path: nothing can have completed before the tracked minimum.
    if (minComplete_ > now)
        return;
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [now](const Entry &e) {
                                     return e.completeAt <= now;
                                 }),
                  active_.end());
    reindex();
}

bool
MshrFile::isOutstanding(Addr line_addr, Cycle now) const
{
    return completionOf(line_addr, now) != kNoCycle;
}

Cycle
MshrFile::completionOf(Addr line_addr, Cycle now) const
{
    expire(now);
    const std::uint32_t slot = findSlot(line_addr);
    return table_[slot] == kEmptySlot ? kNoCycle
                                      : active_[table_[slot]].completeAt;
}

bool
MshrFile::canAllocate(Cycle now) const
{
    expire(now);
    return active_.size() < entries_;
}

void
MshrFile::allocate(Addr line_addr, Cycle now, Cycle complete_at)
{
    expire(now);
    RAT_ASSERT(active_.size() < entries_, "MSHR overflow");
    const std::uint32_t slot = findSlot(line_addr);
    if (table_[slot] == kEmptySlot) {
        table_[slot] = static_cast<std::uint32_t>(active_.size());
    }
    // else: a live record for the line exists (evicted-while-pending
    // re-miss); the index keeps pointing at the oldest one.
    active_.push_back({line_addr, complete_at});
    minComplete_ = std::min(minComplete_, complete_at);
}

unsigned
MshrFile::occupancy(Cycle now) const
{
    expire(now);
    return static_cast<unsigned>(active_.size());
}

Cycle
MshrFile::earliestCompletion(Cycle now) const
{
    expire(now);
    return active_.empty() ? kNoCycle : minComplete_;
}

bool
MshrFile::auditIndexConsistent(std::string *why) const
{
    // Deliberately does not expire(): lazily-unexpired entries are
    // legal state, and every invariant below holds at all times.
    const auto fail = [why](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    if (active_.size() > entries_) {
        std::ostringstream os;
        os << "mshr: " << active_.size() << " live fills exceed capacity "
           << entries_;
        return fail(os.str());
    }

    Cycle min = kNoCycle;
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(active_.size()); ++i) {
        const Entry &e = active_[i];
        min = std::min(min, e.completeAt);
        const std::uint32_t slot = findSlot(e.lineAddr);
        if (table_[slot] == kEmptySlot) {
            std::ostringstream os;
            os << "mshr: live fill #" << i << " (line 0x" << std::hex
               << e.lineAddr << ") unreachable through the line index";
            return fail(os.str());
        }
        // The index must name the oldest live record of the line.
        std::uint32_t oldest = i;
        for (std::uint32_t j = 0; j < i; ++j) {
            if (active_[j].lineAddr == e.lineAddr) {
                oldest = j;
                break;
            }
        }
        if (table_[slot] != oldest) {
            std::ostringstream os;
            os << "mshr: index slot " << slot << " for line 0x" << std::hex
               << e.lineAddr << std::dec << " points at record "
               << table_[slot] << ", expected oldest record " << oldest;
            return fail(os.str());
        }
    }
    if (min != minComplete_) {
        std::ostringstream os;
        os << "mshr: tracked min completion " << minComplete_
           << " != actual min " << min << " over " << active_.size()
           << " live fills";
        return fail(os.str());
    }

    for (std::uint32_t slot = 0; slot < tableSize_; ++slot) {
        const std::uint32_t idx = table_[slot];
        if (idx == kEmptySlot)
            continue;
        if (idx >= active_.size()) {
            std::ostringstream os;
            os << "mshr: index slot " << slot << " points at record " << idx
               << " beyond the " << active_.size() << " live fills";
            return fail(os.str());
        }
        if (findSlot(active_[idx].lineAddr) != slot) {
            std::ostringstream os;
            os << "mshr: index slot " << slot << " not on line 0x"
               << std::hex << active_[idx].lineAddr << "'s probe chain";
            return fail(os.str());
        }
    }
    return true;
}

} // namespace rat::mem
