#include "src/obs/timeseries.hh"

#include "src/obs/hostprof.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "src/sim/engine.hh"

namespace griffin::obs {

TimeSeries::TimeSeries(Tick tick) : _tick(tick)
{
    assert(tick > 0);
}

void
TimeSeries::setLinkBusyProbe(std::function<double()> cumulative_busy,
                             unsigned wires)
{
    assert(!_engine && "set the probe before start()");
    _busyProbe = std::move(cumulative_busy);
    _wires = wires;
}

void
TimeSeries::start(sim::Engine &engine)
{
    assert(!_engine && "time series already started");
    _engine = &engine;
    _intervalBegin = engine.now();
    if (_busyProbe)
        _prevBusy = _busyProbe();
    _hookId = engine.addPeriodicHook(
        _tick, [this](Tick boundary) { flush(boundary); });
}

void
TimeSeries::stop()
{
    if (!_engine)
        return;
    _engine->removePeriodicHook(_hookId);
    // Flush the final partial interval: events after the last
    // boundary would otherwise be dropped and the per-interval sums
    // would no longer reconcile with the run-level aggregates.
    const Tick now = _engine->now();
    bool pending = now > _intervalBegin || !_faultLatencies.empty();
    for (const std::uint64_t c : _counts)
        pending = pending || c > 0;
    if (pending)
        flush(now);
    _engine = nullptr;
    _hookId = 0;
}

void
TimeSeries::count(Series series, std::uint64_t n)
{
    GHPROF_SCOPE("obs", "timeseries");
    _counts[unsigned(series)] += n;
}

void
TimeSeries::fault(double latency)
{
    GHPROF_SCOPE("obs", "timeseries");
    ++_counts[unsigned(Series::Faults)];
    _faultLatencies.push_back(latency);
}

void
TimeSeries::flush(Tick boundary)
{
    GHPROF_SCOPE("obs", "timeseries");
    Row row;
    row.begin = _intervalBegin;
    row.end = boundary;
    row.counts = _counts;

    if (!_faultLatencies.empty()) {
        // Nearest-rank percentiles over the interval's own samples:
        // exact, deterministic, and cheap at fault-population sizes.
        std::sort(_faultLatencies.begin(), _faultLatencies.end());
        const auto rank = [this](double p) {
            const std::size_t n = _faultLatencies.size();
            std::size_t k = std::size_t(std::ceil(p / 100.0 * double(n)));
            k = std::min(std::max<std::size_t>(k, 1), n);
            return _faultLatencies[k - 1];
        };
        row.faultP50 = rank(50.0);
        row.faultP95 = rank(95.0);
    }

    if (_busyProbe && _wires > 0 && boundary > _intervalBegin) {
        const double busy = _busyProbe();
        row.linkUtil = (busy - _prevBusy) /
                       (double(boundary - _intervalBegin) * _wires);
        _prevBusy = busy;
    }

    for (unsigned s = 0; s < numSeries; ++s)
        _totals[s] += _counts[s];

    _rows.push_back(std::move(row));
    _counts = {};
    _faultLatencies.clear();
    _intervalBegin = boundary;
}

TimeSeries::Summary
TimeSeries::summary() const
{
    Summary s;
    s.tick = _tick;
    s.rows = _rows;
    s.totals = _totals;
    return s;
}

} // namespace griffin::obs
