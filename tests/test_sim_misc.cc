/**
 * @file
 * Tests for the sim-layer odds and ends: env-var run scaling, table
 * printing, and SimStats derived metrics.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "pipeline/sim_stats.hh"
#include "sim/options.hh"
#include "sim/tableio.hh"

using namespace lvpsim;
using namespace lvpsim::sim;

TEST(Options, InstrsDefaultWhenUnset)
{
    unsetenv("LVPSIM_INSTRS");
    EXPECT_EQ(instrsFromEnv(12345), 12345u);
}

TEST(Options, InstrsFromEnvironment)
{
    setenv("LVPSIM_INSTRS", "777", 1);
    EXPECT_EQ(instrsFromEnv(1), 777u);
    setenv("LVPSIM_INSTRS", "0", 1); // 0 is rejected, not "unset"
    EXPECT_EXIT(instrsFromEnv(42), ::testing::ExitedWithCode(2),
                "LVPSIM_INSTRS");
    unsetenv("LVPSIM_INSTRS");
}

TEST(Options, InstrsRejectsGarbage)
{
    // A malformed count is a usage error (exit 2 naming the variable),
    // never a silent fallback to the default.
    for (const char *bad : {"not-a-number", "-5", "+5", "", " 5", "5x",
                            "99999999999999999999"}) {
        setenv("LVPSIM_INSTRS", bad, 1);
        EXPECT_EXIT(instrsFromEnv(42), ::testing::ExitedWithCode(2),
                    "LVPSIM_INSTRS")
            << "'" << bad << "'";
        setenv("LVPSIM_WARMUP", bad, 1);
        EXPECT_EXIT(warmupFromEnv(), ::testing::ExitedWithCode(2),
                    "LVPSIM_WARMUP")
            << "'" << bad << "'";
    }
    unsetenv("LVPSIM_INSTRS");
    unsetenv("LVPSIM_WARMUP");
}

TEST(Options, SuiteSelection)
{
    setenv("LVPSIM_SUITE", "smoke", 1);
    const auto smoke = suiteFromEnv();
    unsetenv("LVPSIM_SUITE");
    const auto full = suiteFromEnv();
    EXPECT_LT(smoke.size(), full.size());
    EXPECT_EQ(smoke.size(), 8u);
    setenv("LVPSIM_SUITE", "full", 1);
    EXPECT_EQ(suiteFromEnv().size(), full.size());
    // A typo must not silently run the full suite.
    setenv("LVPSIM_SUITE", "smok", 1);
    EXPECT_EXIT(suiteFromEnv(), ::testing::ExitedWithCode(2),
                "LVPSIM_SUITE");
    unsetenv("LVPSIM_SUITE");
}

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer_name", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("longer_name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    // Header and two rows plus the rule line.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TextTable, CsvOutputIsGreppable)
{
    TextTable t({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os, "mytag");
    EXPECT_NE(os.str().find("CSV,mytag,x,y"), std::string::npos);
    EXPECT_NE(os.str().find("CSV,mytag,1,2"), std::string::npos);
}

TEST(Formatting, Helpers)
{
    EXPECT_EQ(fmtPct(0.5, 0), "50%");
    EXPECT_EQ(fmtPct(0.1234), "12.34%");
    EXPECT_EQ(fmtF(1.5, 1), "1.5");
    EXPECT_EQ(fmtKB(9.6, 1), "9.6KB");
}

TEST(SimStats, DerivedMetrics)
{
    pipe::SimStats s;
    s.cycles = 100;
    s.instructions = 250;
    EXPECT_DOUBLE_EQ(s.ipc(), 2.5);
    s.eligibleLoads = 200;
    s.predictionsUsed = 50;
    s.predictionsCorrect = 49;
    EXPECT_DOUBLE_EQ(s.coverage(), 0.25);
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.98);
}

TEST(SimStats, EdgeCasesDoNotDivideByZero)
{
    pipe::SimStats s;
    EXPECT_EQ(s.ipc(), 0.0);
    EXPECT_EQ(s.coverage(), 0.0);
    EXPECT_EQ(s.accuracy(), 1.0); // no used predictions = no errors
}

TEST(SimStats, DumpMentionsKeyFields)
{
    pipe::SimStats s;
    s.cycles = 10;
    s.instructions = 20;
    s.usedByComponent[0] = 5;
    std::ostringstream os;
    s.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("cycles"), std::string::npos);
    EXPECT_NE(out.find("coverage"), std::string::npos);
    EXPECT_NE(out.find("LVP"), std::string::npos);
}
