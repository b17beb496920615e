/**
 * @file
 * Interval time-series over the system's run aggregates: migrations,
 * DCA accesses, shootdowns and faults per fixed tick interval, plus
 * per-interval fault p50/p95 and link utilization.
 *
 * The recorder is a digest over an obs::Sampler, the one periodic
 * recorder: its columns are cumulative probes over counters the system
 * keeps anyway (pageTable.migrations, remoteAccesses, cpu + gpu
 * shootdowns, the faultLatency count, Σ link busy cycles), and each
 * row is the difference between two consecutive samples. The
 * per-interval sums therefore reconcile with the run totals by
 * construction. Events that run on the last boundary's tick, after its
 * hook fired, close a final zero-width row [B, B) at stop(), so nothing
 * after the last boundary is dropped.
 *
 * The recorder is the `series` slot of the thread's telemetry set
 * (obs/telemetry.hh), which feeds it one input: each serviced fault's
 * latency, for the per-interval nearest-rank percentiles.
 */

#ifndef GRIFFIN_OBS_TIMESERIES_HH
#define GRIFFIN_OBS_TIMESERIES_HH

#include <array>
#include <cstdint>
#include <vector>

#include "src/obs/sampler.hh"
#include "src/sim/types.hh"

namespace griffin::obs {

/**
 * The interval recorder. Owned by MultiGpuSystem (built only when
 * SystemConfig::timeseriesTick > 0), installed in the series slot and
 * started for the duration of run().
 */
class TimeSeries
{
  public:
    /** The counted columns. */
    enum class Series : unsigned
    {
        Migrations = 0, ///< page-table commits
        DcaAccesses,    ///< GPU accesses served remotely
        Shootdowns,     ///< CPU flushes + GPU shootdown events
        Faults,         ///< serviced page faults
    };

    static constexpr unsigned numSeries = 4;

    /** One closed interval [begin, end). */
    struct Row
    {
        Tick begin = 0;
        Tick end = 0;
        std::array<std::uint64_t, numSeries> counts{};
        double faultP50 = 0.0;
        double faultP95 = 0.0;
        /** Mean busy fraction across all fabric wires. */
        double linkUtil = 0.0;
    };

    /** The copyable end-of-run digest carried by RunResult. */
    struct Summary
    {
        Tick tick = 0; ///< interval width; 0 = recorder was off
        std::vector<Row> rows;
        std::array<std::uint64_t, numSeries> totals{};
    };

    /**
     * The cumulative counters the columns difference: one per series,
     * in Series order, and the busy cycles summed over @p wires fabric
     * wires.
     */
    struct Sources
    {
        std::array<Sampler::Probe, numSeries> counts;
        Sampler::Probe linkBusy;
        unsigned wires = 0;
    };

    /** @param tick interval width in cycles (must be > 0). */
    TimeSeries(Tick tick, Sources sources);

    /** Start sampling the sources every tick cycles of @p engine. */
    void start(sim::Engine &engine) { _sampler.start(engine, _digest.tick); }

    /**
     * Stop sampling, close the final partial interval and build the
     * rows. Safe to call twice.
     */
    void stop();

    /** One serviced fault @p latency ticks after it was raised. */
    void fault(double latency);

    /** The rows and totals; filled by stop(). */
    const Summary &summary() const { return _digest; }

  private:
    Sources _sources;
    /**
     * Fault latencies of the open interval. Declared before the
     * Sampler, whose destructor may still take a sample that reads it.
     */
    std::vector<double> _latencies;
    Sampler _sampler;
    Summary _digest;
};

/** Snake-case series name used in reports ("dca_accesses", ...). */
const char *seriesName(TimeSeries::Series series);

} // namespace griffin::obs

#endif // GRIFFIN_OBS_TIMESERIES_HH
