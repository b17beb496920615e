#include "src/sim/stats.hh"

#include <algorithm>
#include <cassert>

namespace griffin::sim {

double
StatSet::get(const std::string &name) const
{
    const auto it = _values.find(name);
    return it == _values.end() ? 0.0 : it->second;
}

Histogram::Histogram(double bucket_width, std::size_t num_buckets)
    : _bucketWidth(bucket_width), _buckets(num_buckets + 1, 0)
{
    assert(bucket_width > 0.0 && num_buckets > 0);
}

void
Histogram::sample(double value)
{
    if (_count == 0) {
        _min = _max = value;
    } else {
        _min = std::min(_min, value);
        _max = std::max(_max, value);
    }
    ++_count;
    _sum += value;

    auto idx = std::size_t(value / _bucketWidth);
    if (idx >= _buckets.size())
        idx = _buckets.size() - 1;
    ++_buckets[idx];
}

double
Histogram::percentile(double p) const
{
    if (_count == 0)
        return 0.0;
    if (p <= 0.0)
        return _min;
    if (p >= 100.0)
        return _max;
    const double target = p / 100.0 * double(_count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (double(seen) >= target) {
            // The overflow bucket has no upper edge; report the
            // observed maximum instead of a fabricated boundary.
            if (i + 1 == _buckets.size())
                return _max;
            return std::clamp(double(i + 1) * _bucketWidth, _min, _max);
        }
    }
    return _max;
}

} // namespace griffin::sim
