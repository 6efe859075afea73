#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace pageforge
{

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : _lo(lo), _hi(hi), _width((hi - lo) / static_cast<double>(buckets)),
      _buckets(buckets, 0)
{
    pf_assert(hi > lo && buckets > 0, "bad histogram shape");
}

void
Histogram::sample(double v)
{
    if (_count == 0) {
        _min = _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    ++_count;
    _sum += v;

    if (v < _lo) {
        ++_underflow;
    } else if (v >= _hi) {
        ++_overflow;
    } else {
        auto idx = static_cast<std::size_t>((v - _lo) / _width);
        idx = std::min(idx, _buckets.size() - 1);
        ++_buckets[idx];
    }
}

double
Histogram::minSample() const
{
    return _count ? _min : 0.0;
}

double
Histogram::maxSample() const
{
    return _count ? _max : 0.0;
}

double
Histogram::bucketLo(std::size_t i) const
{
    return _lo + static_cast<double>(i) * _width;
}

double
Histogram::quantile(double q) const
{
    pf_assert(q >= 0.0 && q <= 1.0, "quantile out of range: %f", q);
    if (_count == 0)
        return 0.0;

    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(_count)));
    if (target == 0)
        target = 1;

    std::uint64_t cum = _underflow;
    if (cum >= target)
        return _lo;

    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (cum + _buckets[i] >= target) {
            // Linear interpolation within the bucket.
            double need = static_cast<double>(target - cum);
            double frac = need / static_cast<double>(_buckets[i]);
            return bucketLo(i) + frac * _width;
        }
        cum += _buckets[i];
    }
    return _max;
}

void
Histogram::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _underflow = _overflow = _count = 0;
    _sum = _min = _max = 0.0;
}

} // namespace pageforge
