#include "stats/distribution.hh"

#include <algorithm>
#include <cmath>

#include "util/bitops.hh"

namespace cameo
{

Distribution::Distribution(std::string name, std::string desc,
                           std::uint64_t bucket_width,
                           std::size_t num_buckets)
    : name_(std::move(name)), desc_(std::move(desc)),
      bucketWidth_(bucket_width),
      bucketShift_(isPowerOfTwo(bucket_width)
                       ? static_cast<std::int32_t>(exactLog2(bucket_width))
                       : -1)
{
    if (bucket_width != 0 && num_buckets != 0)
        buckets_.assign(num_buckets, 0);
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t{0};
    max_ = 0;
    overflow_ = 0;
    std::fill(buckets_.begin(), buckets_.end(), 0);
}

bool
Distribution::merge(const Distribution &other)
{
    if (bucketWidth_ != other.bucketWidth_ ||
        buckets_.size() != other.buckets_.size()) {
        return false;
    }
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    overflow_ += other.overflow_;
    count_ += other.count_;
    sum_ += other.sum_;
    // An empty operand carries the identity extremes (~0, 0), so the
    // min/max folds below are no-ops for it on either side.
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    return true;
}

bool
Distribution::restoreState(const std::vector<std::uint64_t> &buckets,
                           std::uint64_t overflow, std::uint64_t count,
                           std::uint64_t sum, std::uint64_t min,
                           std::uint64_t max)
{
    if (buckets.size() != buckets_.size())
        return false;
    buckets_ = buckets;
    overflow_ = overflow;
    count_ = count;
    sum_ = sum;
    min_ = min;
    max_ = max;
    return true;
}

double
Distribution::mean() const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

double
Distribution::percentile(double p) const
{
    if (count_ == 0 || buckets_.empty())
        return 0.0;
    if (std::isnan(p))
        return 0.0;
    // Out-of-range p clamps to the exact observed extremes, which also
    // answers p == 0 and p == 1 without interpolation error (and keeps
    // all-overflow histograms honest for small p).
    if (p <= 0.0)
        return static_cast<double>(min_);
    if (p >= 1.0)
        return static_cast<double>(max_);
    if (min_ == max_)
        return static_cast<double>(min_);
    const double target = p * static_cast<double>(count_);
    const auto clamped = [this](double v) {
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
    };
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const std::uint64_t in_bucket = buckets_[i];
        if (in_bucket != 0 &&
            static_cast<double>(cum + in_bucket) >= target) {
            const double within =
                (target - static_cast<double>(cum)) /
                static_cast<double>(in_bucket);
            const double lo =
                static_cast<double>(i) * static_cast<double>(bucketWidth_);
            return clamped(lo +
                           within * static_cast<double>(bucketWidth_));
        }
        cum += in_bucket;
    }
    // Target rank lies in the overflow bucket.
    return static_cast<double>(max_);
}

} // namespace cameo
