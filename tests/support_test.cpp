#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "support/error.hpp"
#include "support/regression.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace ims::support;

TEST(StatsTest, MeanAndMedianOddSample)
{
    std::vector<double> samples = {3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(mean(samples), 2.0);
    EXPECT_DOUBLE_EQ(median(samples), 2.0);
}

TEST(StatsTest, MedianEvenSampleAveragesMiddlePair)
{
    std::vector<double> samples = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(median(samples), 2.5);
}

TEST(StatsTest, SummarizeMatchesPaperTableShape)
{
    // A skewed distribution like Table 3's rows: many minimum values plus
    // a long tail.
    std::vector<double> samples = {1, 1, 1, 1, 1, 1, 2, 3, 10, 50};
    const DistributionStats stats = summarize(samples, 1.0);
    EXPECT_DOUBLE_EQ(stats.minPossible, 1.0);
    EXPECT_DOUBLE_EQ(stats.freqOfMinPossible, 0.6);
    EXPECT_DOUBLE_EQ(stats.median, 1.0);
    EXPECT_DOUBLE_EQ(stats.mean, 7.1);
    EXPECT_DOUBLE_EQ(stats.maximum, 50.0);
    EXPECT_EQ(stats.count, 10u);
}

TEST(StatsTest, FreqOfMinCountsOnlyExactMinimum)
{
    std::vector<double> samples = {0.0, 0.0, 1.0, 2.0};
    const DistributionStats stats = summarize(samples, 0.0);
    EXPECT_DOUBLE_EQ(stats.freqOfMinPossible, 0.5);
}

TEST(StatsTest, FractionAtMost)
{
    std::vector<double> samples = {0, 5, 10, 20, 40};
    EXPECT_DOUBLE_EQ(fractionAtMost(samples, 10.0), 0.6);
    EXPECT_DOUBLE_EQ(fractionAtMost(samples, 100.0), 1.0);
    EXPECT_DOUBLE_EQ(fractionAtMost(samples, -1.0), 0.0);
}

TEST(RegressionTest, ProportionalFitRecoversSlope)
{
    std::vector<double> x, y;
    for (int i = 1; i <= 50; ++i) {
        x.push_back(i);
        y.push_back(3.0036 * i);
    }
    const PolynomialFit fit = fitProportional(x, y);
    EXPECT_NEAR(fit.coefficients[1], 3.0036, 1e-9);
    EXPECT_NEAR(fit.residualStdDev, 0.0, 1e-9);
}

TEST(RegressionTest, LinearFitRecoversInterceptAndSlope)
{
    std::vector<double> x, y;
    for (int i = 0; i < 20; ++i) {
        x.push_back(i);
        y.push_back(11.9133 * i + 3.0474);
    }
    const PolynomialFit fit = fitLinear(x, y);
    EXPECT_NEAR(fit.coefficients[0], 3.0474, 1e-6);
    EXPECT_NEAR(fit.coefficients[1], 11.9133, 1e-6);
}

TEST(RegressionTest, QuadraticFitRecoversPaperStyleCoefficients)
{
    // The FindTimeSlot counter fit of Table 4: 0.0587N^2 + 0.2001N + 0.5.
    std::vector<double> x, y;
    for (int i = 4; i < 160; i += 3) {
        x.push_back(i);
        y.push_back(0.0587 * i * i + 0.2001 * i + 0.5);
    }
    const PolynomialFit fit = fitPolynomial(x, y, 2);
    EXPECT_NEAR(fit.coefficients[2], 0.0587, 1e-6);
    EXPECT_NEAR(fit.coefficients[1], 0.2001, 1e-4);
    EXPECT_NEAR(fit.coefficients[0], 0.5, 1e-3);
}

TEST(RegressionTest, ToStringRendersDescendingPowers)
{
    PolynomialFit fit;
    fit.coefficients = {0.5, 0.2, 0.06};
    EXPECT_EQ(fit.toString("N"), "0.0600N^2 + 0.2000N + 0.5000");
}

TEST(RegressionTest, EvaluateMatchesPolynomial)
{
    PolynomialFit fit;
    fit.coefficients = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(fit.evaluate(2.0), 1.0 + 4.0 + 12.0);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, UniformIntStaysInRange)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniformInt(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
    }
}

TEST(RngTest, UniformRealInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(RngTest, WeightedIndexRespectsZeroWeights)
{
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
        const std::size_t pick = rng.weightedIndex({0.0, 1.0, 0.0});
        EXPECT_EQ(pick, 1u);
    }
}

TEST(RngTest, BernoulliExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(ErrorTest, CheckThrowsWithMessage)
{
    EXPECT_NO_THROW(check(true, "fine"));
    try {
        check(false, "broken widget");
        FAIL() << "check(false) must throw";
    } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "broken widget");
    }
}

TEST(ErrorTest, CheckBuildsItsMessageOnlyWhenItFails)
{
    int calls = 0;
    const auto message = [&] {
        ++calls;
        return "widget " + std::to_string(calls) + " broke";
    };
    EXPECT_NO_THROW(check(true, message));
    EXPECT_EQ(calls, 0);
    try {
        check(false, message);
        FAIL() << "check(false) must throw";
    } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "widget 1 broke");
    }
    EXPECT_EQ(calls, 1);
}

TEST(TableTest, RendersHeaderRuleAndRows)
{
    TextTable table("demo");
    table.addHeader({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer-name", "2"});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("| name"), std::string::npos);
}

TEST(TableTest, FormatDoublePrecision)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
}

} // namespace
