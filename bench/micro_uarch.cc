/**
 * @file
 * Microbenchmarks (google-benchmark): substrate throughput - TAGE,
 * cache hierarchy, and whole-pipeline simulation speed.
 */

#include <benchmark/benchmark.h>

#include "branch/tage.hh"
#include "common/random.hh"
#include "core/composite.hh"
#include "memory/hierarchy.hh"
#include "pipeline/core.hh"
#include "trace/workloads.hh"

using namespace lvpsim;

namespace
{

void
BM_TagePredictUpdate(benchmark::State &state)
{
    branch::Tage tage;
    Xoshiro256 rng(1);
    Addr pc = 0x1000;
    for (auto _ : state) {
        const bool taken = (pc >> 4) & 1;
        benchmark::DoNotOptimize(tage.predict(pc));
        tage.update(pc, taken);
        pc = 0x1000 + rng.below(256) * 4;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_CacheHierarchyHit(benchmark::State &state)
{
    mem::MemoryHierarchy m;
    m.dataAccess(0x100, 0x10000, false); // warm one line
    for (auto _ : state) {
        auto r = m.dataAccess(0x100, 0x10000, false);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_CacheHierarchyStream(benchmark::State &state)
{
    mem::MemoryHierarchy m;
    Addr a = 0x10000000;
    for (auto _ : state) {
        auto r = m.dataAccess(0x100, a, false);
        benchmark::DoNotOptimize(r);
        a += 64;
    }
    state.SetItemsProcessed(state.iterations());
}

/** Whole-core simulation speed, in simulated instructions/second. */
void
BM_PipelineSimulation(benchmark::State &state)
{
    const auto ops =
        trace::generateWorkload("memset_loop", 50000, 1);
    for (auto _ : state) {
        pipe::CoreConfig cfg;
        pipe::NullPredictor none;
        pipe::Core core(cfg, ops, &none);
        auto stats = core.run();
        benchmark::DoNotOptimize(stats);
    }
    state.SetItemsProcessed(state.iterations() * 50000);
}

void
BM_PipelineWithComposite(benchmark::State &state)
{
    const auto ops =
        trace::generateWorkload("memset_loop", 50000, 1);
    for (auto _ : state) {
        pipe::CoreConfig cfg;
        vp::CompositePredictor pred(
            vp::CompositeConfig::bestOf(1024));
        pipe::Core core(cfg, ops, &pred);
        auto stats = core.run();
        benchmark::DoNotOptimize(stats);
    }
    state.SetItemsProcessed(state.iterations() * 50000);
}

} // anonymous namespace

BENCHMARK(BM_TagePredictUpdate);
BENCHMARK(BM_CacheHierarchyHit);
BENCHMARK(BM_CacheHierarchyStream);
BENCHMARK(BM_PipelineSimulation)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PipelineWithComposite)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
