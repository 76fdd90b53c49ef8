/**
 * @file
 * Span log, order statistics and the report container of ratbench.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "bench.hh"
#include "report/serialize.hh"

namespace ratbench {

namespace {

/** Small per-thread track number, so concurrent spans get own rows. */
int
threadTrack()
{
    static std::atomic<int> next{0};
    thread_local const int track = next++;
    return track;
}

} // namespace

SpanLog::SpanLog(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)),
      origin_(Clock::now())
{
}

int
SpanLog::open(const std::string &name, const std::string &layer,
              const std::string &cell, int parent)
{
    if (!enabled_)
        return -1;
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.layer = layer;
    s.cell = cell;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.start = t;
    s.dur = -1.0;
    s.track = threadTrack();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanLog::close(int id)
{
    if (!enabled_ || id < 0)
        return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.dur = t - s.start;
}

int
SpanLog::add(const std::string &name, const std::string &layer,
             const std::string &cell, int parent, double start, double dur)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.layer = layer;
    s.cell = cell;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.start = start;
    s.dur = dur;
    s.track = parent >= 0 ? spans_[static_cast<std::size_t>(parent)].track
                          : threadTrack();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_)
        if (s.name == name && s.dur >= 0.0)
            out.push_back(s.dur);
    return out;
}

std::map<std::string, double>
SpanLog::selfTime(int root, bool byName) const
{
    const std::vector<Span> all = spans();
    std::vector<double> childTime(all.size(), 0.0);
    for (const Span &s : all)
        if (s.parent >= 0 && s.dur > 0.0)
            childTime[static_cast<std::size_t>(s.parent)] += s.dur;

    // A span is inside `root` when root is on its parent chain.
    const auto under = [&](const Span &s) {
        if (root < 0)
            return true;
        for (int p = s.parent; p >= 0;
             p = all[static_cast<std::size_t>(p)].parent)
            if (p == root)
                return true;
        return false;
    };

    std::map<std::string, double> self;
    for (const Span &s : all) {
        if (s.dur < 0.0 || !under(s))
            continue;
        // Children of a multi-threaded parent can cover more than its
        // wall; clamp so self time never goes negative.
        self[byName ? s.name : s.layer] += std::max(
            0.0, s.dur - childTime[static_cast<std::size_t>(s.id)]);
    }
    return self;
}

std::string
SpanLog::chromeJson() const
{
    const std::vector<Span> all = spans();
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[128];
    bool first = true;
    for (const Span &s : all) {
        if (s.dur < 0.0)
            continue;
        out += first ? "" : ",\n";
        first = false;
        out += "{\"name\":" + rat::report::quoteJson(s.name) +
               ",\"cat\":" + rat::report::quoteJson(s.layer) +
               ",\"ph\":\"X\"";
        std::snprintf(buf, sizeof buf,
                      ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                      s.start * 1e6, s.dur * 1e6, s.track);
        out += buf;
        out += ",\"args\":{\"workload\":" + rat::report::quoteJson(workload_) +
               ",\"cell\":" + rat::report::quoteJson(s.cell) +
               ",\"id\":" + std::to_string(s.id) +
               ",\"parent\":" + std::to_string(s.parent) + "}}";
    }
    out += "\n]}\n";
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n <= 10) {
        t.value = v.back();
        return t;
    }
    // Nearest rank r (1-based) of percentile p is ceil(p/100 * n); the
    // samples beyond it are n - r. Take the largest whole p with
    // n - r >= 10.
    for (int p = 99; p >= 1; --p) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(static_cast<double>(p) / 100.0 *
                      static_cast<double>(n)));
        if (rank >= 1 && n - rank >= 10) {
            t.value = v[rank - 1];
            t.percentile = p;
            t.beyond = n - rank;
            return t;
        }
    }
    t.value = v.front();
    t.percentile = 0;
    t.beyond = n - 1;
    return t;
}

std::string
serializeResult(const rat::sim::SimResult &result)
{
    return rat::report::toJson(result).dump();
}

void
Report::set(const std::string &name, double value, const std::string &unit,
            std::size_t samples, const std::string &note)
{
    for (auto &kv : metrics) {
        if (kv.first == name) {
            kv.second = {value, unit, samples, note};
            return;
        }
    }
    metrics.emplace_back(name, Metric{value, unit, samples, note});
}

} // namespace ratbench
