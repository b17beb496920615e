/**
 * @file
 * Periodic time-series sampler, the one periodic recorder in obs.
 *
 * Benches register probes (per-GPU page residency, link utilization,
 * outstanding faults, CU occupancy — anything callable) and start the
 * sampler against a sim::Engine; every N cycles it snapshots every
 * probe into an in-memory time series that exports as CSV or feeds
 * the JSON run report. The interval recorder (obs/timeseries.hh) is a
 * digest over a Sampler of its own.
 *
 * Sampling rides the engine's periodic-hook mechanism: boundaries
 * fire inside run() without scheduling events, so the sampler never
 * extends the simulated end time. A run's row count is
 * 1 + floor(t_last / period) boundary rows (the initial row is taken
 * at start()) plus, when the run ends between boundaries, one final
 * partial row taken by stop() at the end time — so the tail of the
 * run is never dropped.
 */

#ifndef GRIFFIN_OBS_SAMPLER_HH
#define GRIFFIN_OBS_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/types.hh"

namespace griffin::obs {

/**
 * The sampler. add() all probes first, then start(); rows accumulate
 * until the run ends or stop() is called.
 */
class Sampler
{
  public:
    using Probe = std::function<double()>;

    /** One snapshot: the boundary tick plus every probe's value. */
    struct Row
    {
        Tick tick;
        std::vector<double> values;
    };

    Sampler() = default;
    ~Sampler() { stop(); }

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Register a probe under @p name (one CSV column). */
    void add(std::string name, Probe probe);

    /**
     * Take an immediate sample and then one every @p period cycles of
     * @p engine's run() loop. The engine must outlive this sampler or
     * stop() must be called first.
     */
    void start(sim::Engine &engine, Tick period);

    /**
     * Deregister from the engine, first taking one final sample at
     * the engine's current time when the run ended strictly after the
     * last recorded row (the final partial sampling interval).
     * Recorded rows are kept.
     */
    void stop();

    /** Take one snapshot labelled @p tick right now. */
    void sampleNow(Tick tick);

    /** Probe names, in registration order. */
    const std::vector<std::string> &columns() const { return _columns; }

    const std::vector<Row> &rows() const { return _rows; }

    Tick period() const { return _period; }

    /** Render "tick,col1,col2,...\n..." CSV. */
    std::string csv() const;

  private:
    std::vector<std::string> _columns;
    std::vector<Probe> _probes;
    std::vector<Row> _rows;
    Tick _period = 0;

    sim::Engine *_engine = nullptr;
    std::uint64_t _hookId = 0;
};

} // namespace griffin::obs

#endif // GRIFFIN_OBS_SAMPLER_HH
