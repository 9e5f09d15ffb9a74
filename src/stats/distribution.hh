/**
 * @file
 * Streaming distribution statistic: count / sum / min / max / mean plus
 * a fixed-width histogram. Used for memory-latency and queueing-delay
 * profiles in tests and benches.
 */

#ifndef CAMEO_STATS_DISTRIBUTION_HH
#define CAMEO_STATS_DISTRIBUTION_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace cameo
{

/** Streaming samples with an optional bucketed histogram. */
class Distribution
{
  public:
    Distribution() = default;

    /**
     * @param name         Dotted hierarchical name.
     * @param desc         One-line description.
     * @param bucket_width Histogram bucket width; 0 disables histogram.
     * @param num_buckets  Number of buckets; samples beyond the last
     *                     bucket are accumulated in an overflow bucket.
     */
    Distribution(std::string name, std::string desc,
                 std::uint64_t bucket_width = 0, std::size_t num_buckets = 0);

    /**
     * Record one sample. Inline because the queued DRAM path samples
     * about three times per request: the bucket index is a shift for
     * power-of-two widths and a 32-bit divide when value and width fit
     * in 32 bits, equal in both cases to `value / bucket_width`.
     */
    void
    sample(std::uint64_t value)
    {
        ++count_;
        sum_ += value;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        if (buckets_.empty())
            return;
        std::uint64_t idx;
        if (bucketShift_ >= 0) {
            idx = value >> bucketShift_;
        } else if (value <= UINT32_MAX && bucketWidth_ <= UINT32_MAX) {
            idx = static_cast<std::uint32_t>(value) /
                  static_cast<std::uint32_t>(bucketWidth_);
        } else {
            idx = value / bucketWidth_;
        }
        if (idx < buckets_.size())
            ++buckets_[idx];
        else
            ++overflow_;
    }

    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t minValue() const { return min_; }
    std::uint64_t maxValue() const { return max_; }
    double mean() const;

    /**
     * Estimate the @p p quantile from the histogram by linear
     * interpolation inside the bucket holding the target rank, clamped
     * to the exact observed [min, max]. Samples in the overflow bucket
     * resolve to max. Edge cases: p <= 0 returns the observed min,
     * p >= 1 the observed max (out-of-range p clamps to those); NaN p,
     * an empty distribution, or one built without a histogram return 0.
     */
    double percentile(double p) const;

    /** True when percentile() has a histogram to work from. */
    bool hasHistogram() const { return !buckets_.empty(); }

    /** Histogram access (empty if histogram disabled). */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t bucketWidth() const { return bucketWidth_; }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /**
     * Fold another distribution's samples into this one (sharded-sweep
     * stat merge). Requires an identical histogram shape (bucket width
     * and bucket count); returns false and leaves this distribution
     * untouched on a mismatch. Counts, sums, per-bucket tallies and the
     * overflow bucket add; min/max take the extremes. Because
     * percentile() is a pure function of exactly that state, any
     * percentile of the merged distribution equals the percentile of
     * the unsplit sample stream — merge-then-query and
     * query-after-sampling-everything are the same computation
     * (tests/test_shard.cc pins this across random partitions).
     */
    bool merge(const Distribution &other);

    /**
     * Overwrite sample state from a snapshot (checkpoint restore only).
     * @p buckets must match the configured bucket count — the histogram
     * shape is structural (it comes from the constructor), only the
     * tallies are data. Returns false on a shape mismatch.
     */
    bool restoreState(const std::vector<std::uint64_t> &buckets,
                      std::uint64_t overflow, std::uint64_t count,
                      std::uint64_t sum, std::uint64_t min,
                      std::uint64_t max);

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t bucketWidth_ = 0;
    /** log2 of a power-of-two bucket width, else -1. */
    std::int32_t bucketShift_ = -1;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

} // namespace cameo

#endif // CAMEO_STATS_DISTRIBUTION_HH
