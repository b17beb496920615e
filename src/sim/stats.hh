/**
 * @file
 * Lightweight named statistics.
 *
 * Components expose their hot counters as plain integer members for
 * speed; a StatSet is the uniform, name-addressable view used by the
 * report generators and tests. Components do not register anything:
 * the system copies each counter into its RunResult's StatSet by hand
 * once the run ends (sys::MultiGpuSystem::collectResults), and bind()
 * is available for live probes.
 */

#ifndef GRIFFIN_SIM_STATS_HH
#define GRIFFIN_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace griffin::sim {

/**
 * A name -> value view over a set of counters.
 *
 * Two kinds of entries are supported:
 *  - owned scalars, mutated through inc()/set();
 *  - bound probes, registered with bind(), which read a live component
 *    counter each time the stat is queried.
 */
class StatSet
{
  public:
    /** Add @p delta (default 1) to an owned scalar, creating it at 0. */
    void inc(const std::string &name, double delta = 1.0);

    /** Set an owned scalar to @p value. */
    void set(const std::string &name, double value);

    /** Register a live probe evaluated on every read. */
    void bind(const std::string &name, std::function<double()> probe);

    /** Convenience: bind directly to an integer counter member. */
    void
    bindCounter(const std::string &name, const std::uint64_t &counter)
    {
        bind(name, [&counter] { return double(counter); });
    }

    /**
     * Read a stat by name.
     * @return the value, or 0 if the name is unknown.
     */
    double get(const std::string &name) const;

    /** True if the stat exists (owned or bound). */
    bool has(const std::string &name) const;

    /** Snapshot of every stat, sorted by name. */
    std::map<std::string, double> all() const;

    /** Merge @p other into this set, prefixing names with @p prefix. */
    void adopt(const std::string &prefix, const StatSet &other);

    /** Render the full snapshot as "name value" lines. */
    std::string dump() const;

  private:
    std::map<std::string, double> _scalars;
    std::map<std::string, std::function<double()>> _probes;
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
