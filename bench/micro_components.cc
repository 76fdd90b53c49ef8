/**
 * @file
 * Google-benchmark micro-benchmarks of the simulator's hot components
 * (engineering health, not a paper figure): cache access, perceptron
 * prediction and training, trace synthesis and its sequential scans,
 * result serialization, the functional prewarm walk, and whole-core
 * cycle throughput.
 */

#include <array>

#include <benchmark/benchmark.h>

#include "branch/perceptron.hh"
#include "core/smt_core.hh"
#include "mem/hierarchy.hh"
#include "policy/factory.hh"
#include "report/result_cache.hh"
#include "report/serialize.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace {

using namespace rat;

/** The default `ratsim run` MIX4 mix (ratbench's first cell-mix4 mix). */
const std::vector<std::string> kMix4 = {"ammp", "applu", "apsi", "eon"};

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheConfig cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.ways = 4;
    mem::Cache cache(cfg);
    Addr evicted = 0;
    for (Addr a = 0; a < 64 * 1024; a += 64)
        cache.install(a, 0, 0, evicted);
    Addr a = 0;
    Cycle now = 1;
    for (auto _ : state) {
        Cycle ready = 0;
        benchmark::DoNotOptimize(cache.access(a & 0xFFFF, ++now, ready));
        a += 64;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyColdMiss(benchmark::State &state)
{
    mem::MemoryHierarchy h{mem::MemConfig{}};
    Addr a = 0;
    Cycle now = 0;
    for (auto _ : state) {
        now += 500; // let MSHRs drain
        benchmark::DoNotOptimize(h.readData(0, a, now));
        a += 4096; // fresh set each time: worst case walk
    }
}
BENCHMARK(BM_HierarchyColdMiss);

void
BM_PerceptronPredict(benchmark::State &state)
{
    branch::PerceptronPredictor p;
    Addr pc = 0x1000;
    for (auto _ : state) {
        const auto out = p.predict(0, pc);
        p.update(0, pc, (pc >> 4) & 1, out);
        pc += 4;
    }
}
BENCHMARK(BM_PerceptronPredict);

void
BM_PerceptronTrain(benchmark::State &state)
{
    // Predict + update over the conditional branches of a 100k-
    // instruction walk of the default MIX4 streams, in walk order
    // (instruction i of every thread, then i + 1), cycled: the work of
    // the walk's predictor lane. Items are branches.
    struct Branch {
        ThreadId tid;
        Addr pc;
        bool taken;
    };
    static const std::vector<Branch> branches = [] {
        const auto gens = sim::makeStreams(sim::SimConfig{}.seed, kMix4);
        std::vector<Branch> out;
        for (InstSeq i = 0; i < 100000; ++i) {
            for (std::size_t t = 0; t < gens.size(); ++t) {
                const trace::MicroOp op = gens[t]->at(i);
                if (op.op == trace::OpClass::Branch)
                    out.push_back({static_cast<ThreadId>(t), op.pc,
                                   op.taken});
            }
        }
        return out;
    }();
    branch::PerceptronPredictor p;
    std::size_t k = 0;
    for (auto _ : state) {
        const Branch &b = branches[k];
        const auto out = p.predict(b.tid, b.pc);
        p.update(b.tid, b.pc, b.taken, out);
        if (++k == branches.size())
            k = 0;
    }
    benchmark::DoNotOptimize(p.mispredicts());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PerceptronTrain);

void
BM_TraceGenerate(benchmark::State &state)
{
    // The four streams of a default MIX4 Simulator, walked in prewarm
    // order (instruction i of every thread, then i + 1); one at() per
    // iteration.
    const auto gens = sim::makeStreams(sim::SimConfig{}.seed, kMix4);
    InstSeq i = 0;
    std::size_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gens[t]->at(i));
        if (++t == gens.size()) {
            t = 0;
            ++i;
        }
    }
}
BENCHMARK(BM_TraceGenerate);

void
BM_TraceScan(benchmark::State &state)
{
    // The same four streams through the sequential scans: the PC scan
    // (argument 0, what the phase profiler reads), the walk scan
    // (argument 1, what the prewarm walk reads) or the full-MicroOp
    // scan (argument 2, what a fetch-memo miss refills), a
    // 64-instruction chunk of every stream per iteration. Items are
    // instructions.
    constexpr std::size_t kChunk = 64;
    const auto kind = state.range(0);
    const auto gens = sim::makeStreams(sim::SimConfig{}.seed, kMix4);
    std::array<Addr, kChunk> pcs;
    std::array<trace::WalkRecord, kChunk> recs;
    std::array<trace::MicroOp, kChunk> ops;
    InstSeq i = 0;
    for (auto _ : state) {
        for (const auto &g : gens) {
            if (kind == 0)
                g->scanPcs(i, kChunk, pcs.data());
            else if (kind == 1)
                g->scanWalk(i, kChunk, recs.data(), 1);
            else
                g->scanOps(i, kChunk, ops.data());
        }
        benchmark::DoNotOptimize(pcs.data());
        benchmark::DoNotOptimize(recs.data());
        benchmark::DoNotOptimize(ops.data());
        benchmark::ClobberMemory();
        i += kChunk;
    }
    state.SetLabel(kind == 0 ? "pcs" : kind == 1 ? "walk" : "ops");
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChunk * gens.size()));
}
BENCHMARK(BM_TraceScan)->Arg(0)->Arg(1)->Arg(2);

/** A short MIX4 cell: its effective config and its result. */
struct Mix4Cell {
    sim::SimConfig config;
    sim::SimResult result;
};

const Mix4Cell &
mix4Cell()
{
    static const Mix4Cell cell = [] {
        sim::SimConfig cfg;
        cfg.prewarmInsts = 10000;
        cfg.warmupCycles = 200;
        cfg.measureCycles = 2000;
        sim::Simulator sim(cfg, kMix4);
        return Mix4Cell{sim.config(), sim.run()};
    }();
    return cell;
}

void
BM_ReportRoundTrip(benchmark::State &state)
{
    // What a cell pays around its cache I/O: toJson(SimResult).dump()
    // of one MIX4 result (argument 0), Json::parse + fromJson of that
    // text (1), or ResultCache::keyFor of its config (2). The result
    // comes from a short run: the serializer walks its shape (four
    // threads, every counter), whatever the values.
    const Mix4Cell &cell = mix4Cell();
    const std::string text = report::toJson(cell.result).dump();
    const auto part = state.range(0);
    for (auto _ : state) {
        if (part == 0) {
            benchmark::DoNotOptimize(report::toJson(cell.result).dump());
        } else if (part == 1) {
            const auto json = report::Json::parse(text);
            sim::SimResult back;
            benchmark::DoNotOptimize(json && report::fromJson(*json, back));
        } else {
            benchmark::DoNotOptimize(
                report::ResultCache::keyFor(cell.config, kMix4));
        }
    }
    state.SetLabel(part == 0 ? "serialize" : part == 1 ? "parse" : "key");
}
BENCHMARK(BM_ReportRoundTrip)->Arg(0)->Arg(1)->Arg(2);

void
BM_PrewarmWalk(benchmark::State &state)
{
    // What a cell pays for its walk: prewarm(100000) on a fresh MIX4
    // Simulator (construction untimed), on the argument's worker count.
    // Items are thread-instructions. The 1-worker row is the walk of
    // every campaign and farm cell; `ratsim run` and the sampled
    // checkpoint walker walk on up to four.
    constexpr InstSeq kInsts = 100000;
    const auto workers = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulator sim(sim::SimConfig{}, kMix4);
        state.ResumeTiming();
        sim.smtCore().prewarm(kInsts, workers);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kInsts * kMix4.size()));
}
BENCHMARK(BM_PrewarmWalk)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_CoreCycle(benchmark::State &state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    core::CoreConfig cfg;
    cfg.numThreads = threads;
    cfg.policy = core::PolicyKind::Rat;
    mem::MemoryHierarchy memory{mem::MemConfig{}};
    const char *programs[] = {"art", "gzip", "mcf", "swim"};
    std::vector<std::unique_ptr<trace::TraceGenerator>> gens;
    std::vector<const trace::TraceSource *> streams;
    for (unsigned t = 0; t < threads; ++t) {
        gens.push_back(std::make_unique<trace::TraceGenerator>(
            trace::spec2000(programs[t]), t + 1,
            (static_cast<Addr>(t) + 1) << 40));
        streams.push_back(gens.back().get());
    }
    auto policy = policy::makePolicy(core::PolicyKind::Rat);
    core::SmtCore smt(cfg, memory, *policy, std::move(streams));
    smt.run(5000); // get past cold start
    for (auto _ : state)
        smt.tick();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreCycle)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
