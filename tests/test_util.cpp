// util: RNG determinism and distribution sanity, timers, options, tables.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "util/check.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using ucp::Options;
using ucp::Rng;
using ucp::TextTable;
using ucp::Timer;

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
    Rng rng(7);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const auto v = rng.below(10);
        ASSERT_LT(v, 10u);
        ++counts[v];
    }
    for (const int c : counts) {
        EXPECT_GT(c, n / 10 - n / 50);
        EXPECT_LT(c, n / 10 + n / 50);
    }
}

TEST(Rng, BetweenInclusive) {
    Rng rng(9);
    bool lo_seen = false, hi_seen = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.between(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        lo_seen |= v == -3;
        hi_seen |= v == 3;
    }
    EXPECT_TRUE(lo_seen);
    EXPECT_TRUE(hi_seen);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(31);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Timer, MeasuresElapsedTime) {
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GE(t.milliseconds(), 15.0);
    t.restart();
    EXPECT_LT(t.milliseconds(), 15.0);
}

TEST(Options, ParsesFlagsValuesAndPositionals) {
    const char* argv[] = {"prog", "--alpha=2.5", "--flag", "file.pla",
                          "--iters=12", "--name=x"};
    Options o(6, argv);
    EXPECT_TRUE(o.has("flag"));
    EXPECT_TRUE(o.get_bool("flag", false));
    EXPECT_FALSE(o.has("missing"));
    EXPECT_DOUBLE_EQ(o.get_double("alpha", 0.0), 2.5);
    EXPECT_EQ(o.get_int("iters", 0), 12);
    EXPECT_EQ(o.get("name", ""), "x");
    EXPECT_EQ(o.get("missing", "d"), "d");
    ASSERT_EQ(o.positional().size(), 1u);
    EXPECT_EQ(o.positional()[0], "file.pla");
    EXPECT_EQ(o.keys().size(), 4u);
}

TEST(TextTable, AlignsColumns) {
    TextTable t({"Name", "Sol", "T(s)"});
    t.add_row({"bench1", "121", "14.26"});
    t.add_row({"x", "5"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("bench1"), std::string::npos);
    EXPECT_NE(s.find("121"), std::string::npos);
    // Header separator row present.
    EXPECT_NE(s.find("|--"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, NumFormatsPrecision) {
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Check, RequireThrowsInvalidArgument) {
    EXPECT_THROW(UCP_REQUIRE(false, "boom"), std::invalid_argument);
    EXPECT_NO_THROW(UCP_REQUIRE(true, ""));
    EXPECT_THROW(UCP_ASSERT(false), std::logic_error);
}

}  // namespace
