#include "sim/experiment.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "policy/factory.hh"

namespace rat::sim {

TechniqueSpec
techniqueOf(core::PolicyKind kind)
{
    return {policy::policyKindName(kind), kind, {}};
}

void
runParallel(const std::vector<std::function<void()>> &jobs,
            unsigned workers)
{
    if (jobs.empty())
        return;
    workers = std::min<unsigned>(workers ? workers : 1,
                                 static_cast<unsigned>(jobs.size()));
    if (workers <= 1) {
        for (const auto &job : jobs)
            job();
        return;
    }
    // An exception escaping a std::thread body calls std::terminate,
    // so a single throwing job would abort the whole process with the
    // other workers unjoined. Catch per job, stop handing out new
    // work, join everyone, then rethrow the first failure.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first;
    std::mutex firstMutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (;;) {
                if (failed.load(std::memory_order_relaxed))
                    return;
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= jobs.size())
                    return;
                try {
                    jobs[i]();
                } catch (...) {
                    std::lock_guard<std::mutex> lock(firstMutex);
                    if (!first)
                        first = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto &t : pool)
        t.join();
    if (first)
        std::rethrow_exception(first);
}

SimConfig
configFor(const SimConfig &base, const TechniqueSpec &tech,
          unsigned num_threads)
{
    SimConfig cfg = base;
    cfg.core.numThreads = num_threads;
    cfg.core.policy = tech.policy;
    cfg.core.rat = tech.rat;
    return cfg;
}

} // namespace rat::sim
