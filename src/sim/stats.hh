/**
 * @file
 * Lightweight named statistics.
 *
 * Components expose their hot counters as plain integer members for
 * speed; a StatSet is the uniform, name-addressable view used by the
 * report generators and tests. Components do not register anything:
 * the system copies each counter into its RunResult's StatSet by hand
 * once the run ends (sys::MultiGpuSystem::collectResults).
 */

#ifndef GRIFFIN_SIM_STATS_HH
#define GRIFFIN_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace griffin::sim {

/** A name -> value map of a run's counters. */
class StatSet
{
  public:
    /** Set the stat @p name to @p value. */
    void set(const std::string &name, double value) { _values[name] = value; }

    /**
     * Read a stat by name.
     * @return the value, or 0 if the name is unknown.
     */
    double get(const std::string &name) const;

    /** Every stat, sorted by name. */
    const std::map<std::string, double> &all() const { return _values; }

  private:
    std::map<std::string, double> _values;
};

/**
 * A fixed-bucket histogram for latency-style distributions.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width width of each bucket
     * @param num_buckets  bucket count; samples beyond the last bucket
     *                     land in an overflow bucket.
     */
    Histogram(double bucket_width, std::size_t num_buckets);

    /** Record one sample. */
    void sample(double value);

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / double(_count) : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    /** Bucket counts; the final element is the overflow bucket. */
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }

    double bucketWidth() const { return _bucketWidth; }

    /**
     * Approximate p-th percentile from the buckets.
     *
     * Defined behavior at the edges:
     *  - empty histogram: 0;
     *  - p <= 0: min(); p >= 100: max();
     *  - otherwise: the upper edge of the first bucket whose
     *    cumulative count reaches ceil-wise p% of count(), clamped
     *    into [min(), max()]. The clamp makes a single-sample
     *    histogram return that sample for every p, and keeps results
     *    inside the observed range at bucket boundaries;
     *  - samples resolving to the overflow bucket report max(), since
     *    the overflow bucket has no meaningful upper edge.
     */
    double percentile(double p) const;

  private:
    double _bucketWidth;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

} // namespace griffin::sim

#endif // GRIFFIN_SIM_STATS_HH
