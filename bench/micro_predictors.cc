/**
 * @file
 * Microbenchmarks (google-benchmark): raw lookup/train throughput of
 * the predictor structures, independent of the pipeline model.
 */

#include <benchmark/benchmark.h>

#include "core/cap.hh"
#include "core/composite.hh"
#include "core/cvp.hh"
#include "core/eves.hh"
#include "core/lvp.hh"
#include "core/sap.hh"

using namespace lvpsim;
using namespace lvpsim::vp;

namespace
{

pipe::LoadProbe
probeOf(Addr pc, std::uint64_t token)
{
    pipe::LoadProbe p;
    p.pc = pc;
    p.token = token;
    return p;
}

pipe::LoadOutcome
outcomeOf(Addr pc, std::uint64_t token)
{
    pipe::LoadOutcome o;
    o.pc = pc;
    o.token = token;
    o.effAddr = 0x1000 + (pc & 0xff) * 8;
    o.size = 8;
    o.value = pc * 3;
    return o;
}

template <typename PredT>
void
componentLookupTrain(benchmark::State &state)
{
    PredT pred(1024, 1);
    std::uint64_t token = 1;
    Addr pc = 0x400000;
    for (auto _ : state) {
        auto cp = pred.lookup(probeOf(pc, token));
        benchmark::DoNotOptimize(cp);
        pred.train(outcomeOf(pc, token), cp);
        ++token;
        pc = 0x400000 + (token % 512) * 4;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_LvpLookupTrain(benchmark::State &state)
{
    componentLookupTrain<Lvp>(state);
}

void
BM_SapLookupTrain(benchmark::State &state)
{
    componentLookupTrain<Sap>(state);
}

void
BM_CvpLookupTrain(benchmark::State &state)
{
    componentLookupTrain<Cvp>(state);
}

void
BM_CapLookupTrain(benchmark::State &state)
{
    componentLookupTrain<Cap>(state);
}

void
BM_CompositePredictTrain(benchmark::State &state)
{
    CompositeConfig cfg = CompositeConfig::bestOf(
        std::size_t(state.range(0)));
    cfg.epochInstrs = 10000;
    CompositePredictor pred(cfg);
    std::uint64_t token = 1;
    for (auto _ : state) {
        const Addr pc = 0x400000 + (token % 512) * 4;
        auto p = pred.predict(probeOf(pc, token));
        benchmark::DoNotOptimize(p);
        pred.train(outcomeOf(pc, token));
        pred.onRetire(4);
        ++token;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_EvesPredictTrain(benchmark::State &state)
{
    EvesPredictor pred(EvesConfig::large32k());
    std::uint64_t token = 1;
    for (auto _ : state) {
        const Addr pc = 0x400000 + (token % 512) * 4;
        auto p = pred.predict(probeOf(pc, token));
        benchmark::DoNotOptimize(p);
        pred.train(outcomeOf(pc, token));
        ++token;
    }
    state.SetItemsProcessed(state.iterations());
}

} // anonymous namespace

BENCHMARK(BM_LvpLookupTrain);
BENCHMARK(BM_SapLookupTrain);
BENCHMARK(BM_CvpLookupTrain);
BENCHMARK(BM_CapLookupTrain);
BENCHMARK(BM_CompositePredictTrain)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_EvesPredictTrain);

BENCHMARK_MAIN();
