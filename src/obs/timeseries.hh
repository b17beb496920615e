/**
 * @file
 * Interval time-series over the system's event stream: migrations,
 * DCA accesses, shootdowns and faults per fixed tick interval, plus
 * per-interval fault p50/p95 and link utilization.
 *
 * The recorder rides sim::Engine's periodic-hook mechanism (like the
 * probe Sampler), so interval boundaries fire inside run() without
 * extending the simulated end time. Unlike the Sampler, the columns
 * here are event-driven: the instrumented counting sites are the
 * exact statements that bump the run-level aggregate counters, so the
 * per-interval sums reconcile with the run totals by construction
 * (sum of migrations rows == pageTable.migrations, shootdowns ==
 * cpuShootdowns + gpuShootdowns, dca_accesses == remoteAccesses,
 * faults == the faultLatency histogram count). The final partial
 * interval is flushed at stop(), so nothing after the last boundary
 * is dropped.
 *
 * The recorder is the `series` slot of the thread's telemetry set
 * (obs/telemetry.hh): null-checked static guards, zero cost when the
 * slot is empty, one instance per concurrent sweep run.
 */

#ifndef GRIFFIN_OBS_TIMESERIES_HH
#define GRIFFIN_OBS_TIMESERIES_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/obs/telemetry.hh"
#include "src/sim/types.hh"

namespace griffin::sim {
class Engine;
} // namespace griffin::sim

namespace griffin::obs {

/**
 * The interval recorder. Owned by MultiGpuSystem (built only when
 * SystemConfig::timeseriesTick > 0), installed in the series slot and
 * started for the duration of run().
 */
class TimeSeries
{
  public:
    /** The event-driven columns. */
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

    /** @param tick interval width in cycles (must be > 0). */
    explicit TimeSeries(Tick tick);
    ~TimeSeries() { stop(); }

    TimeSeries(const TimeSeries &) = delete;
    TimeSeries &operator=(const TimeSeries &) = delete;

    /**
     * Poll source for link utilization: returns the *cumulative* busy
     * cycles summed over @p wires fabric wires; each flush converts
     * the delta into a mean busy fraction. Set before start().
     */
    void setLinkBusyProbe(std::function<double()> cumulative_busy,
                          unsigned wires);

    /** Register the interval boundary hook on @p engine. */
    void start(sim::Engine &engine);

    /**
     * Deregister from the engine and flush the final partial interval
     * (anything recorded since the last boundary). Recorded rows are
     * kept; safe to call twice.
     */
    void stop();

    /** @name Static guards for instrumentation sites @{ */

    static void
    countActive(Series series, std::uint64_t n = 1)
    {
        if (TimeSeries *ts = Telemetry::current().series)
            ts->count(series, n);
    }

    /** @} */

    void count(Series series, std::uint64_t n = 1);
    /** One serviced fault: bumps Faults and records its latency. */
    void fault(double latency);

    /** @name Inspection (reports, tests) @{ */

    Tick tick() const { return _tick; }
    const std::vector<Row> &rows() const { return _rows; }

    /** Run total of @p series across all flushed rows. */
    std::uint64_t total(Series series) const
    {
        return _totals[unsigned(series)];
    }

    Summary summary() const;

    /** @} */

  private:
    void flush(Tick boundary);

    Tick _tick;
    std::vector<Row> _rows;
    std::array<std::uint64_t, numSeries> _totals{};

    /** The accumulating open interval. */
    Tick _intervalBegin = 0;
    std::array<std::uint64_t, numSeries> _counts{};
    std::vector<double> _faultLatencies;

    std::function<double()> _busyProbe;
    unsigned _wires = 0;
    double _prevBusy = 0.0;

    sim::Engine *_engine = nullptr;
    std::uint64_t _hookId = 0;
};

} // namespace griffin::obs

#endif // GRIFFIN_OBS_TIMESERIES_HH
