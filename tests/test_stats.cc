/**
 * @file
 * Unit tests for the stats library: counters, distributions, the
 * registry, and text-table formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "stats/counter.hh"
#include "stats/distribution.hh"
#include "stats/registry.hh"
#include "stats/table.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

TEST(CounterTest, IncrementAndReset)
{
    Counter c("test.counter", "a counter");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c += 8;
    EXPECT_EQ(c.value(), 50u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(c.name(), "test.counter");
    EXPECT_EQ(c.desc(), "a counter");
}

TEST(DistributionTest, BasicMoments)
{
    Distribution d("d", "desc");
    d.sample(10);
    d.sample(20);
    d.sample(30);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.sum(), 60u);
    EXPECT_EQ(d.minValue(), 10u);
    EXPECT_EQ(d.maxValue(), 30u);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
}

TEST(DistributionTest, EmptyMeanIsZero)
{
    Distribution d("d", "desc");
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.count(), 0u);
}

TEST(DistributionTest, HistogramBuckets)
{
    Distribution d("d", "desc", 10, 4); // buckets [0,10) [10,20) ...
    d.sample(0);
    d.sample(9);
    d.sample(10);
    d.sample(39);
    d.sample(40); // overflow
    d.sample(1000);
    ASSERT_EQ(d.buckets().size(), 4u);
    EXPECT_EQ(d.buckets()[0], 2u);
    EXPECT_EQ(d.buckets()[1], 1u);
    EXPECT_EQ(d.buckets()[3], 1u);
    EXPECT_EQ(d.overflow(), 2u);
}

TEST(DistributionTest, PercentilesInterpolateWithinBuckets)
{
    // Unit-width buckets over 1..100: with one sample per value, the
    // interpolated quantiles land on the sample values themselves.
    Distribution d("d", "desc", 1, 128);
    for (std::uint64_t v = 1; v <= 100; ++v)
        d.sample(v);
    EXPECT_TRUE(d.hasHistogram());
    EXPECT_NEAR(d.percentile(0.50), 50.0, 1.0);
    EXPECT_NEAR(d.percentile(0.95), 95.0, 1.0);
    EXPECT_NEAR(d.percentile(0.99), 99.0, 1.0);
    // Extremes clamp to the exact observed range.
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
}

TEST(DistributionTest, PercentileClampsToObservedRange)
{
    // All mass in one wide bucket: interpolation stays within the
    // observed [min, max], not the bucket's nominal [0, width) span.
    Distribution d("d", "desc", 1000, 4);
    d.sample(400);
    d.sample(410);
    d.sample(420);
    EXPECT_GE(d.percentile(0.01), 400.0);
    EXPECT_LE(d.percentile(0.99), 420.0);
}

TEST(DistributionTest, PercentileOverflowResolvesToMax)
{
    Distribution d("d", "desc", 10, 2); // covers [0, 20); rest overflows
    d.sample(5);
    d.sample(500);
    d.sample(700);
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 700.0);
}

TEST(DistributionTest, PercentileWithoutHistogramIsZero)
{
    Distribution no_hist("d", "desc");
    no_hist.sample(42);
    EXPECT_FALSE(no_hist.hasHistogram());
    EXPECT_DOUBLE_EQ(no_hist.percentile(0.5), 0.0);

    Distribution empty("d", "desc", 10, 4);
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
}

TEST(DistributionTest, PercentileSingleSampleIsThatSample)
{
    Distribution d("d", "desc", 10, 4);
    d.sample(17);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 17.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 17.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 17.0);
}

TEST(DistributionTest, PercentileIdenticalSamplesNeedNoInterpolation)
{
    Distribution d("d", "desc", 100, 4); // all land in one wide bucket
    for (int i = 0; i < 8; ++i)
        d.sample(250);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 250.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.95), 250.0);
}

TEST(DistributionTest, PercentileOutOfRangePClampsToExtremes)
{
    Distribution d("d", "desc", 10, 8);
    d.sample(12);
    d.sample(34);
    d.sample(56);
    EXPECT_DOUBLE_EQ(d.percentile(-0.5), 12.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.5), 56.0);
    EXPECT_DOUBLE_EQ(d.percentile(-1e300), 12.0);
    EXPECT_DOUBLE_EQ(d.percentile(1e300), 56.0);
}

TEST(DistributionTest, PercentileNanPIsZero)
{
    Distribution d("d", "desc", 10, 8);
    d.sample(12);
    d.sample(34);
    EXPECT_DOUBLE_EQ(d.percentile(std::nan("")), 0.0);
}

TEST(DistributionTest, PercentileEmptyIsZeroForAnyP)
{
    Distribution d("d", "desc", 10, 8);
    EXPECT_DOUBLE_EQ(d.percentile(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(2.0), 0.0);
}

TEST(DistributionTest, PercentileAllOverflowStillHonorsEndpoints)
{
    Distribution d("d", "desc", 10, 2); // covers [0, 20)
    d.sample(100);
    d.sample(300);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 300.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 300.0);
}

TEST(DistributionTest, ResetClearsEverything)
{
    Distribution d("d", "desc", 5, 2);
    d.sample(3);
    d.sample(100);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.sum(), 0u);
    EXPECT_EQ(d.overflow(), 0u);
    EXPECT_EQ(d.buckets()[0], 0u);
}

/**
 * Reference model of Distribution's sample state: the plain 64-bit
 * `value / width` bucket index the inline fast paths must reproduce.
 */
struct ReferenceHistogram
{
    std::uint64_t width;
    std::vector<std::uint64_t> buckets;
    std::uint64_t overflow = 0;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = ~std::uint64_t{0};
    std::uint64_t max = 0;

    void
    sample(std::uint64_t value)
    {
        ++count;
        sum += value;
        min = std::min(min, value);
        max = std::max(max, value);
        const std::uint64_t idx = value / width;
        if (idx < buckets.size())
            ++buckets[idx];
        else
            ++overflow;
    }
};

TEST(DistributionTest, BucketingMatchesDivisionReference)
{
    Rng rng(2024);
    // Values straddle every fast-path boundary: small, near 2^32, at
    // and above it, and up to 2^64 - 1.
    const auto draw_value = [&rng]() -> std::uint64_t {
        switch (rng.next(5)) {
          case 0:
            return rng.next(4096);
          case 1:
            return UINT32_MAX - 8 + rng.next(16);
          case 2:
            return (std::uint64_t{1} << 32) + rng.next(1u << 20);
          case 3:
            return ~std::uint64_t{0} - rng.next(16);
          default: {
            const std::uint64_t bits = rng();
            return bits >> rng.next(64);
          }
        }
    };
    for (int trial = 0; trial < 400; ++trial) {
        std::uint64_t width;
        switch (trial % 4) {
          case 0: // Power of two, up to 2^63.
            width = std::uint64_t{1} << rng.next(64);
            break;
          case 1: // Small non-power-of-two (the 32-bit divide path).
            width = 3 + 2 * rng.next(1000);
            break;
          case 2: // Non-power-of-two wider than 32 bits.
            width = (std::uint64_t{1} << 32) + 1 + 2 * rng.next(1u << 30);
            break;
          default: // width * count overflows 2^64.
            width = (std::uint64_t{1} << 62) + 3;
            break;
        }
        const std::size_t count = 1 + rng.next(80);
        Distribution d("d", "", width, count);
        ReferenceHistogram ref{width, std::vector<std::uint64_t>(count)};
        for (int i = 0; i < 500; ++i) {
            const std::uint64_t v = draw_value();
            d.sample(v);
            ref.sample(v);
        }
        ASSERT_EQ(d.buckets(), ref.buckets) << "width " << width;
        ASSERT_EQ(d.overflow(), ref.overflow) << "width " << width;
        ASSERT_EQ(d.count(), ref.count);
        ASSERT_EQ(d.sum(), ref.sum);
        ASSERT_EQ(d.minValue(), ref.min);
        ASSERT_EQ(d.maxValue(), ref.max);
    }
}

TEST(RegistryTest, AddAndFind)
{
    StatRegistry reg;
    Counter c("x.count", "desc");
    Distribution d("x.dist", "desc");
    reg.add(c);
    reg.add(d);
    EXPECT_EQ(reg.findCounter("x.count"), &c);
    EXPECT_EQ(reg.findCounter("missing"), nullptr);
    EXPECT_EQ(reg.findDistribution("x.dist"), &d);
    EXPECT_EQ(reg.findDistribution("x.count"), nullptr);
}

TEST(RegistryTest, MakeCounterOwnsStorage)
{
    StatRegistry reg;
    Counter &c = reg.makeCounter("owned.counter", "desc");
    c.inc(5);
    EXPECT_EQ(reg.findCounter("owned.counter")->value(), 5u);
}

TEST(RegistryTest, ResetAll)
{
    StatRegistry reg;
    Counter c("c", "d");
    Distribution d("dd", "d");
    c.inc(3);
    d.sample(7);
    reg.add(c);
    reg.add(d);
    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(d.count(), 0u);
}

TEST(RegistryTest, DumpContainsEntries)
{
    StatRegistry reg;
    Counter c("alpha.count", "the alpha counter");
    c.inc(99);
    reg.add(c);
    std::ostringstream out;
    reg.dump(out);
    EXPECT_NE(out.str().find("alpha.count"), std::string::npos);
    EXPECT_NE(out.str().find("99"), std::string::npos);
}

TEST(RegistryTest, DumpsReportPercentilesForBucketedDistributions)
{
    StatRegistry reg;
    Distribution lat("mem.lat", "latency", 1, 128);
    for (std::uint64_t v = 1; v <= 100; ++v)
        lat.sample(v);
    Distribution plain("mem.plain", "no histogram");
    plain.sample(7);
    reg.add(lat);
    reg.add(plain);

    std::ostringstream text;
    reg.dump(text);
    EXPECT_NE(text.str().find("p95="), std::string::npos);

    std::ostringstream json;
    reg.dumpJson(json);
    EXPECT_NE(json.str().find("\"p99\""), std::string::npos);

    std::ostringstream csv;
    reg.dumpCsv(csv);
    const std::string s = csv.str();
    EXPECT_EQ(s.rfind("name,value,count,sum,min,max,mean,p50,p95,p99", 0),
              0u);
    EXPECT_NE(s.find("mem.lat,"), std::string::npos);
    // The histogram-less distribution has empty percentile cells.
    EXPECT_NE(s.find("mem.plain"), std::string::npos);
}

TEST(TextTableTest, AlignedOutput)
{
    TextTable t("My Table");
    t.setHeader({"Name", "Value"});
    t.addRow({"workload-with-long-name", "1.23"});
    t.addRow({"w", "45.60"});
    std::ostringstream out;
    t.print(out);
    const std::string s = out.str();
    EXPECT_NE(s.find("My Table"), std::string::npos);
    EXPECT_NE(s.find("workload-with-long-name"), std::string::npos);
    EXPECT_NE(s.find("45.60"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TextTableTest, CellFormatting)
{
    EXPECT_EQ(TextTable::cell(1.234567, 2), "1.23");
    EXPECT_EQ(TextTable::cell(1.5, 0), "2");
    EXPECT_EQ(TextTable::cell(std::uint64_t{42}), "42");
}

} // namespace
} // namespace cameo
