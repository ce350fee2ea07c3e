/**
 * @file
 * Custom main() for the google-benchmark binaries (micro_uarch,
 * micro_predictors) so they accept the harness-wide flags every
 * other bench/ binary takes (see bench_common.hh):
 *
 *   --jobs N|auto  accepted for glob-wide uniformity; microbenchmark
 *                  timing is single-threaded by design, so the value
 *                  only has to parse
 *   --json FILE    mapped onto google-benchmark's native JSON report
 *                  (--benchmark_out=FILE --benchmark_out_format=json;
 *                  NOT the docs/results_schema.md format -- these
 *                  binaries measure wall time, not simulations)
 *   --warmup N     exported as LVPSIM_WARMUP so benchmark fixtures
 *                  that build a RunConfig pick up the warmup length
 *
 *
 * Unrecognized arguments pass through to google-benchmark, so the
 * native --benchmark_* flags keep working.
 */

#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "sim/options.hh"
#include "sim/parallel_executor.hh"

namespace lvpsim
{
namespace bench
{

inline int
microbenchMain(int argc, char **argv, const char *tag)
{
    std::vector<std::string> fwd;
    fwd.emplace_back(argc > 0 ? argv[0] : tag);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&](const char *what) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << what << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--jobs") {
            std::size_t jobs = 1;
            const std::string v = next("--jobs");
            if (!sim::ParallelExecutor::parseJobs(v, jobs)) {
                std::cerr << "bad --jobs value '" << v
                          << "' (want a count or 'auto')\n";
                return 2;
            }
        } else if (a == "--json") {
            fwd.push_back("--benchmark_out=" + next("--json"));
            fwd.push_back("--benchmark_out_format=json");
        } else if (a == "--warmup") {
            const std::string v = next("--warmup");
            sim::parseCountOrExit("--warmup", v);
            ::setenv("LVPSIM_WARMUP", v.c_str(), 1);
        } else if (a == "--help" || a == "-h") {
            std::cout << tag
                      << " [--jobs N|auto] [--json FILE]"
                         " [--warmup N] [--benchmark_* ...]\n"
                         "--json writes google-benchmark's JSON"
                         " report; native --benchmark_* flags pass"
                         " through.\n";
            return 0;
        } else {
            fwd.push_back(a);
        }
    }

    std::vector<char *> cargv;
    cargv.reserve(fwd.size());
    for (auto &s : fwd)
        cargv.push_back(s.data());
    int cargc = int(cargv.size());
    benchmark::Initialize(&cargc, cargv.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace bench
} // namespace lvpsim

