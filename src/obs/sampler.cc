#include "src/obs/sampler.hh"

#include "src/obs/hostprof.hh"

#include <cassert>
#include <cstdio>
#include <utility>

namespace griffin::obs {

void
Sampler::add(std::string name, Probe probe)
{
    assert(!_engine && "register probes before start()");
    _columns.push_back(std::move(name));
    _probes.push_back(std::move(probe));
}

void
Sampler::start(sim::Engine &engine, Tick period)
{
    assert(period > 0);
    assert(!_engine && "sampler already started");
    _engine = &engine;
    _period = period;
    sampleNow(engine.now());
    _hookId = engine.addPeriodicHook(
        period, [this](Tick boundary) { sampleNow(boundary); });
}

void
Sampler::stop()
{
    if (!_engine)
        return;
    // Flush the final partial interval: without this, everything that
    // happened after the last period boundary would vanish from the
    // series. Strictly-greater keeps a boundary-coincident end from
    // duplicating the last row.
    if (!_rows.empty() && _engine->now() > _rows.back().tick)
        sampleNow(_engine->now());
    _engine->removePeriodicHook(_hookId);
    _engine = nullptr;
}

void
Sampler::sampleNow(Tick tick)
{
    GHPROF_SCOPE("obs", "sampler");
    Row &row = _rows.emplace_back(Row{tick, {}});
    row.values.reserve(_probes.size());
    for (const Probe &probe : _probes)
        row.values.push_back(probe());
}

std::string
Sampler::csv() const
{
    std::string out = "tick";
    for (const std::string &col : _columns) {
        out += ',';
        out += col;
    }
    out += '\n';
    char buf[40];
    for (const Row &row : _rows) {
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(row.tick));
        out += buf;
        for (const double v : row.values) {
            std::snprintf(buf, sizeof buf, ",%.6g", v);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

} // namespace griffin::obs
