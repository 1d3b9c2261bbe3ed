/**
 * @file
 * Unit tests for Parameter: transforms, level structure, quantization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "dspace/paper_space.hh"
#include "dspace/parameter.hh"
#include "math/rng.hh"

namespace {

using namespace ppm::dspace;

TEST(Parameter, LinearUnitMapping)
{
    Parameter p("lat", 1, 5, 4, Transform::Linear, true);
    EXPECT_DOUBLE_EQ(p.toUnit(1), 0.0);
    EXPECT_DOUBLE_EQ(p.toUnit(5), 1.0);
    EXPECT_DOUBLE_EQ(p.toUnit(3), 0.5);
    EXPECT_DOUBLE_EQ(p.fromUnit(0.5), 3.0);
}

TEST(Parameter, LinearClampsOutOfRange)
{
    Parameter p("lat", 1, 5, 4, Transform::Linear, true);
    EXPECT_DOUBLE_EQ(p.toUnit(0), 0.0);
    EXPECT_DOUBLE_EQ(p.toUnit(99), 1.0);
    EXPECT_DOUBLE_EQ(p.fromUnit(-1), 1.0);
    EXPECT_DOUBLE_EQ(p.fromUnit(2), 5.0);
}

TEST(Parameter, LogUnitMapping)
{
    Parameter p("l2", 256, 8192, 6, Transform::Log, true);
    EXPECT_DOUBLE_EQ(p.toUnit(256), 0.0);
    EXPECT_DOUBLE_EQ(p.toUnit(8192), 1.0);
    // Geometric midpoint: sqrt(256 * 8192) = 1448.15...
    EXPECT_NEAR(p.toUnit(std::sqrt(256.0 * 8192.0)), 0.5, 1e-12);
    EXPECT_NEAR(p.fromUnit(0.5), std::sqrt(256.0 * 8192.0), 1e-6);
}

TEST(Parameter, RoundTripLinear)
{
    Parameter p("x", 7, 24, 18, Transform::Linear, false);
    for (double v : {7.0, 10.3, 15.5, 24.0})
        EXPECT_NEAR(p.fromUnit(p.toUnit(v)), v, 1e-12);
}

TEST(Parameter, RoundTripLog)
{
    Parameter p("x", 8, 64, 4, Transform::Log, false);
    for (double v : {8.0, 11.3, 32.0, 64.0})
        EXPECT_NEAR(p.fromUnit(p.toUnit(v)), v, 1e-9);
}

TEST(Parameter, LevelValuesLinearEvenlySpaced)
{
    Parameter p("lat", 1, 4, 4, Transform::Linear, true);
    EXPECT_DOUBLE_EQ(p.levelValue(0, 4), 1.0);
    EXPECT_DOUBLE_EQ(p.levelValue(1, 4), 2.0);
    EXPECT_DOUBLE_EQ(p.levelValue(2, 4), 3.0);
    EXPECT_DOUBLE_EQ(p.levelValue(3, 4), 4.0);
}

TEST(Parameter, LevelValuesLogArePowersOfTwo)
{
    Parameter p("il1", 8, 64, 4, Transform::Log, true);
    EXPECT_DOUBLE_EQ(p.levelValue(0, 4), 8.0);
    EXPECT_DOUBLE_EQ(p.levelValue(1, 4), 16.0);
    EXPECT_DOUBLE_EQ(p.levelValue(2, 4), 32.0);
    EXPECT_DOUBLE_EQ(p.levelValue(3, 4), 64.0);
}

TEST(Parameter, PaperL2LevelsArePowersOfTwo)
{
    Parameter p("L2", 256, 8192, 6, Transform::Log, true);
    const double expected[] = {256, 512, 1024, 2048, 4096, 8192};
    for (int i = 0; i < 6; ++i)
        EXPECT_DOUBLE_EQ(p.levelValue(i, 6), expected[i]);
}

TEST(Parameter, SnapToNearestLevel)
{
    Parameter p("lat", 1, 4, 4, Transform::Linear, true);
    EXPECT_DOUBLE_EQ(p.snapToLevel(1.4, 4), 1.0);
    EXPECT_DOUBLE_EQ(p.snapToLevel(1.6, 4), 2.0);
    EXPECT_DOUBLE_EQ(p.snapToLevel(4.0, 4), 4.0);
    EXPECT_DOUBLE_EQ(p.snapToLevel(0.0, 4), 1.0); // clamped
}

TEST(Parameter, EffectiveLevelsFixed)
{
    Parameter p("lat", 1, 4, 4, Transform::Linear, true);
    EXPECT_EQ(p.effectiveLevels(100), 4);
    EXPECT_FALSE(p.sampleSizeLevels());
}

TEST(Parameter, EffectiveLevelsSampleSizeDependent)
{
    Parameter p("rob", 24, 128, kSampleSizeLevels, Transform::Linear,
                true);
    EXPECT_TRUE(p.sampleSizeLevels());
    EXPECT_EQ(p.effectiveLevels(90), 90);
    EXPECT_EQ(p.effectiveLevels(1), 2); // floor at 2 levels
}

TEST(Parameter, IntegerQuantization)
{
    Parameter p("rob", 24, 128, kSampleSizeLevels, Transform::Linear,
                true);
    EXPECT_DOUBLE_EQ(p.quantize(56.4), 56.0);
    EXPECT_DOUBLE_EQ(p.quantize(56.6), 57.0);
}

TEST(Parameter, FractionalNotQuantized)
{
    Parameter p("frac", 0.25, 0.75, kSampleSizeLevels,
                Transform::Linear, false);
    EXPECT_DOUBLE_EQ(p.quantize(0.314), 0.314);
}

TEST(Parameter, Contains)
{
    Parameter p("lat", 1, 4, 4, Transform::Linear, true);
    EXPECT_TRUE(p.contains(1));
    EXPECT_TRUE(p.contains(4));
    EXPECT_TRUE(p.contains(2.5));
    EXPECT_FALSE(p.contains(0.5));
    EXPECT_FALSE(p.contains(4.5));
}

TEST(Parameter, TransformNames)
{
    EXPECT_EQ(transformName(Transform::Linear), "linear");
    EXPECT_EQ(transformName(Transform::Log), "log");
}

TEST(Parameter, ContainsIsInclusiveAtExactBounds)
{
    const Parameter p("lat", 1.0, 12.0, 4, Transform::Linear, true);
    EXPECT_TRUE(p.contains(1.0));
    EXPECT_TRUE(p.contains(12.0));
}

TEST(Parameter, ContainsAbsorbsUlpsOnNarrowLargeMagnitudeRanges)
{
    // Regression: a narrow range at a large magnitude makes the old
    // span-only tolerance (1e-9 * span) smaller than one ulp of the
    // endpoints, so a boundary value that round-tripped through
    // fromUnit/quantize and picked up a few ulps was rejected.
    const Parameter p("freq", 999999.0, 1000001.0, 0,
                      Transform::Linear, false);
    double just_above = 1000001.0;
    for (int i = 0; i < 20; ++i)
        just_above = std::nextafter(
            just_above, std::numeric_limits<double>::infinity());
    double just_below = 999999.0;
    for (int i = 0; i < 20; ++i)
        just_below = std::nextafter(
            just_below, -std::numeric_limits<double>::infinity());
    EXPECT_TRUE(p.contains(just_above));
    EXPECT_TRUE(p.contains(just_below));
    // Genuinely outside values are still rejected.
    EXPECT_FALSE(p.contains(1000001.1));
    EXPECT_FALSE(p.contains(999998.9));
}

/** toUnit by the three-log2 formula: the reference for the cache. */
double
threeLog2ToUnit(const Parameter &p, double raw)
{
    const double clamped = std::clamp(raw, p.minValue(), p.maxValue());
    if (p.transform() == Transform::Log)
        return (std::log2(clamped) - std::log2(p.minValue())) /
            (std::log2(p.maxValue()) - std::log2(p.minValue()));
    return (clamped - p.minValue()) / (p.maxValue() - p.minValue());
}

/** fromUnit by the same uncached formula. */
double
threeLog2FromUnit(const Parameter &p, double unit)
{
    const double u = std::clamp(unit, 0.0, 1.0);
    if (p.transform() == Transform::Log)
        return std::exp2(std::log2(p.minValue()) +
                         u * (std::log2(p.maxValue()) -
                              std::log2(p.minValue())));
    return p.minValue() + u * (p.maxValue() - p.minValue());
}

TEST(Parameter, CachedLog2GivesTheSameBitsAsTheThreeLog2Formula)
{
    // Every level of every Table 1 and Table 2 parameter (a
    // sample-size level count taken at 200 points), then 10,000
    // random raw values per parameter spanning the clamp on both
    // sides.
    ppm::math::Rng rng(2027);
    for (const DesignSpace &space : {paperTrainSpace(), paperTestSpace()}) {
        for (const Parameter &p : space.params()) {
            const int count = p.effectiveLevels(200);
            for (int level = 0; level < count; ++level) {
                const double raw = p.levelValue(level, count);
                ASSERT_EQ(std::bit_cast<std::uint64_t>(p.toUnit(raw)),
                          std::bit_cast<std::uint64_t>(
                              threeLog2ToUnit(p, raw)))
                    << p.name() << " level " << level;
            }
            const double span = p.maxValue() - p.minValue();
            for (int i = 0; i < 10'000; ++i) {
                const double raw =
                    rng.uniform(p.minValue() - 0.1 * span,
                                p.maxValue() + 0.1 * span);
                ASSERT_EQ(std::bit_cast<std::uint64_t>(p.toUnit(raw)),
                          std::bit_cast<std::uint64_t>(
                              threeLog2ToUnit(p, raw)))
                    << p.name() << " raw " << raw;
                const double unit = rng.uniform(-0.1, 1.1);
                ASSERT_EQ(
                    std::bit_cast<std::uint64_t>(p.fromUnit(unit)),
                    std::bit_cast<std::uint64_t>(
                        threeLog2FromUnit(p, unit)))
                    << p.name() << " unit " << unit;
            }
        }
    }
}

} // namespace
