/**
 * @file
 * The figure driver: regenerates the paper's tables and figures (and
 * the ablations) from the table in figures.cc, printing for each an
 * aligned text table, greppable `CSV,<tag>,...` lines and one verdict
 * line per claim.
 *
 *   figures [--figure ID|all] [--jobs N|auto] [--json FILE]
 *           [--warmup N]
 *
 *   --figure ID  one figure (--help lists the IDs); default all,
 *                which skips the slow exhaustive tab06_full
 *   --jobs N     run suite simulations on N worker threads
 *                (0 or "auto" = one per hardware thread; default 1)
 *   --json FILE  write every suite result to FILE in the schema of
 *                docs/results_schema.md; meta.suite is the figure's
 *                tag, or "all"
 *   --warmup N   warm each workload for N instructions before the
 *                measured region (default LVPSIM_WARMUP or 0)
 *
 * Scale: LVPSIM_INSTRS (instructions per workload, default 150K) and
 * LVPSIM_SUITE=smoke|full (default full, 28 kernels). A failing
 * claim is reported, not fatal: the exit status is 0 unless usage is
 * bad (2) or the --json file cannot be written (1). tests/test_shape.cc
 * is the gate that asserts the claims.
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "figures.hh"
#include "sim/options.hh"
#include "sim/parallel_executor.hh"
#include "sim/results_json.hh"

using namespace lvpsim;

namespace
{

void
usage()
{
    std::cout << "figures [--figure ID|all] [--jobs N|auto] [--json FILE]"
                 " [--warmup N]\n"
                 "env: LVPSIM_INSTRS, LVPSIM_WARMUP, LVPSIM_SUITE\n"
                 "figure IDs (all = every ID not marked *):\n";
    for (const auto &f : bench::figureTable())
        std::cout << "  " << std::left << std::setw(22)
                  << (f.id + std::string(f.inAll ? "" : "*")) << f.title
                  << "\n";
}

void
runFigure(const bench::Figure &fig, bench::FigureContext &ctx)
{
    std::cout << "=====================================================\n"
              << fig.title << "\n";
    if (fig.usesSuite)
        std::cout << "workloads: " << ctx.workloads.size()
                  << "   instructions/workload: " << ctx.rc.maxInstrs
                  << "\n";
    std::cout << "=====================================================\n";
    const auto out = fig.run(ctx);
    std::cout << "\n\n";
    out.table.print(std::cout);
    out.table.printCsv(std::cout, fig.csvTag);
    std::cout << "\n";
    for (const auto &note : out.notes)
        std::cout << note << "\n";
    for (const auto &v : bench::checkClaims(fig, out))
        std::cout << v.line << "\n";
    std::cout << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string which = "all", json_path;
    bench::FigureContext ctx;
    ctx.rc.maxInstrs = sim::instrsFromEnv(150000);
    ctx.rc.warmupInstrs = sim::warmupFromEnv();
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << a << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--figure") {
            which = next();
        } else if (a == "--jobs") {
            const std::string v = next();
            if (!sim::ParallelExecutor::parseJobs(v, ctx.jobs)) {
                std::cerr << "bad --jobs value '" << v
                          << "' (want a count or 'auto')\n";
                return 2;
            }
        } else if (a == "--json") {
            json_path = next();
        } else if (a == "--warmup") {
            ctx.rc.warmupInstrs =
                std::size_t(sim::parseCountOrExit("--warmup", next()));
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option '" << a << "' (try --help)\n";
            return 2;
        }
    }

    std::vector<const bench::Figure *> figures;
    if (which == "all") {
        for (const auto &f : bench::figureTable())
            if (f.inAll)
                figures.push_back(&f);
    } else if (const auto *f = bench::findFigure(which)) {
        figures.push_back(f);
    } else {
        std::cerr << "unknown figure '" << which << "' (try --help)\n";
        return 2;
    }

    ctx.workloads = sim::suiteFromEnv();
    for (const auto *f : figures)
        runFigure(*f, ctx);

    if (json_path.empty())
        return 0;
    sim::ReportMeta meta;
    meta.jobs = ctx.jobs;
    meta.maxInstrs = ctx.rc.maxInstrs;
    meta.warmupInstrs = ctx.rc.warmupInstrs;
    meta.traceSeed = ctx.rc.traceSeed;
    meta.suite = figures.size() == 1 ? figures[0]->csvTag : "all";
    std::string err;
    if (!sim::writeResultsFile(json_path, ctx.recorded, meta, &err)) {
        std::cerr << err << "\n";
        return 1;
    }
    std::cout << "results: " << json_path << " (" << ctx.recorded.size()
              << " suite runs)\n";
    return 0;
}
