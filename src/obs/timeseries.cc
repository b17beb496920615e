#include "src/obs/timeseries.hh"

#include "src/obs/hostprof.hh"

#include <algorithm>
#include <cmath>
#include <utility>

namespace griffin::obs {

namespace {

/** The Sampler's columns after the counts. */
enum : unsigned { kBusy = TimeSeries::numSeries, kP50, kP95 };

/** Nearest rank of sorted @p samples: exact and deterministic. */
double
nearestRank(const std::vector<double> &samples, double p)
{
    const std::size_t n = samples.size();
    if (n == 0)
        return 0.0;
    std::size_t k = std::size_t(std::ceil(p / 100.0 * double(n)));
    k = std::min(std::max<std::size_t>(k, 1), n);
    return samples[k - 1];
}

} // namespace

const char *
seriesName(TimeSeries::Series series)
{
    switch (series) {
      case TimeSeries::Series::Migrations: return "migrations";
      case TimeSeries::Series::DcaAccesses: return "dca_accesses";
      case TimeSeries::Series::Shootdowns: return "shootdowns";
      case TimeSeries::Series::Faults: return "faults";
    }
    return "unknown";
}

TimeSeries::TimeSeries(Tick tick, Sources sources)
    : _sources(std::move(sources)), _digest{tick, {}, {}}
{
    for (const Sampler::Probe &count : _sources.counts)
        _sampler.add("count", count);
    _sampler.add("busy", _sources.linkBusy);
    // The percentile columns digest the interval's fault latencies:
    // the p50 probe sorts them and the p95 probe, read next, clears
    // them for the interval that opens at this sample.
    _sampler.add("fault_p50", [this] {
        std::sort(_latencies.begin(), _latencies.end());
        return nearestRank(_latencies, 50.0);
    });
    _sampler.add("fault_p95", [this] {
        const double p95 = nearestRank(_latencies, 95.0);
        _latencies.clear();
        return p95;
    });
}

void
TimeSeries::stop()
{
    _sampler.stop();
    const std::vector<Sampler::Row> &samples = _sampler.rows();
    if (samples.empty())
        return;
    // Events on the last boundary's tick ran after its hook, so the
    // Sampler holds no row with them: close them in a zero-width row.
    bool moved = !_latencies.empty();
    for (unsigned s = 0; s < numSeries; ++s)
        moved = moved || _sources.counts[s]() != samples.back().values[s];
    if (moved)
        _sampler.sampleNow(samples.back().tick);

    _digest = {_digest.tick, {}, {}};
    for (std::size_t i = 1; i < samples.size(); ++i) {
        const std::vector<double> &prev = samples[i - 1].values;
        const std::vector<double> &cur = samples[i].values;
        Row row{samples[i - 1].tick, samples[i].tick, {}, cur[kP50],
                cur[kP95]};
        for (unsigned s = 0; s < numSeries; ++s) {
            row.counts[s] = std::uint64_t(cur[s] - prev[s]);
            _digest.totals[s] += row.counts[s];
        }
        if (_sources.wires > 0 && row.end > row.begin) {
            row.linkUtil = (cur[kBusy] - prev[kBusy]) /
                           (double(row.end - row.begin) * _sources.wires);
        }
        _digest.rows.push_back(row);
    }
}

void
TimeSeries::fault(double latency)
{
    GHPROF_SCOPE("obs", "timeseries");
    _latencies.push_back(latency);
}

} // namespace griffin::obs
