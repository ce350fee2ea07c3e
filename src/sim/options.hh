/**
 * @file
 * Environment-variable run scaling shared by tests, benches and
 * examples:
 *
 *   LVPSIM_INSTRS=<n>       dynamic instructions per workload
 *   LVPSIM_WARMUP=<n>       warmup instructions before measurement
 *                           (VP disabled; see RunConfig.warmupInstrs)
 *   LVPSIM_SUITE=smoke|full which workload list the benches sweep
 *
 * A count that is not a plain decimal number, an instruction count
 * of 0, or a suite other than smoke or full, exits with status 2.
 */

#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "trace/workloads.hh"

namespace lvpsim
{
namespace sim
{

/**
 * Parse a count given by a flag or environment variable @p what: a
 * non-empty string of decimal digits that fits in 64 bits. Anything
 * else (a sign, whitespace, junk, overflow) prints a message naming
 * @p what and exits with status 2.
 */
inline std::uint64_t
parseCountOrExit(const char *what, std::string_view text)
{
    std::uint64_t n = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, n, 10);
    if (ec != std::errc{} || ptr != end) {
        std::fprintf(stderr,
                     "bad %s value '%.*s' (want a non-negative "
                     "decimal count)\n",
                     what, int(text.size()), text.data());
        std::exit(2);
    }
    return n;
}

/** parseCountOrExit for a count that must be at least 1: 0 also
 *  exits with status 2, naming @p what. */
inline std::uint64_t
parsePositiveCountOrExit(const char *what, std::string_view text)
{
    const std::uint64_t n = parseCountOrExit(what, text);
    if (n == 0) {
        std::fprintf(stderr, "bad %s value '0' (must be at least 1)\n",
                     what);
        std::exit(2);
    }
    return n;
}

/** LVPSIM_INSTRS, or @p fallback when it is unset. */
inline std::size_t
instrsFromEnv(std::size_t fallback = 400000)
{
    if (const char *s = std::getenv("LVPSIM_INSTRS"))
        return std::size_t(parsePositiveCountOrExit("LVPSIM_INSTRS", s));
    return fallback;
}

/** LVPSIM_WARMUP, or @p fallback when it is unset. */
inline std::size_t
warmupFromEnv(std::size_t fallback = 0)
{
    if (const char *s = std::getenv("LVPSIM_WARMUP"))
        return std::size_t(parseCountOrExit("LVPSIM_WARMUP", s));
    return fallback;
}

/**
 * The workload list LVPSIM_SUITE selects: `smoke` or `full` (the
 * default when unset). Any other value exits with status 2.
 */
inline std::vector<std::string>
suiteFromEnv()
{
    if (const char *s = std::getenv("LVPSIM_SUITE")) {
        const std::string_view v = s;
        if (v == "smoke")
            return trace::smokeWorkloadNames();
        if (v != "full") {
            std::fprintf(stderr,
                         "bad LVPSIM_SUITE value '%s' (want smoke or "
                         "full)\n",
                         s);
            std::exit(2);
        }
    }
    return trace::allWorkloadNames();
}

} // namespace sim
} // namespace lvpsim

