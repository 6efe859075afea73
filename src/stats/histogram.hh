/**
 * @file
 * Fixed-bucket histogram for distribution statistics.
 */

#ifndef PF_STATS_HISTOGRAM_HH
#define PF_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace pageforge
{

/**
 * Histogram over [min, max) with uniform buckets plus underflow and
 * overflow buckets. Also tracks exact running sum/min/max so the mean
 * is not quantized.
 */
class Histogram
{
  public:
    /**
     * @param lo lower bound of the tracked range
     * @param hi upper bound of the tracked range
     * @param buckets number of uniform buckets between lo and hi
     */
    Histogram(double lo, double hi, std::size_t buckets);

    void sample(double v);

    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double minSample() const;
    double maxSample() const;

    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }

    /** Lower edge of bucket @p i. */
    double bucketLo(std::size_t i) const;

    /**
     * Approximate quantile from the bucketed data (linear interpolation
     * within the containing bucket). @p q in [0, 1].
     */
    double quantile(double q) const;

    void reset();

  private:
    double _lo;
    double _hi;
    double _width;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

} // namespace pageforge

#endif // PF_STATS_HISTOGRAM_HH
