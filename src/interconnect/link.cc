#include "src/interconnect/link.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace griffin::ic {

Link::Link(const LinkConfig &config) : _config(config)
{
    assert(config.bytesPerCycle > 0.0);
}

void
Link::degrade(Tick until, double factor)
{
    assert(factor > 0.0 && factor <= 1.0);
    // A new window makes an existing one redundant only when it is at
    // least as long AND at least as degraded; otherwise both stay and
    // the overlap resolves to the smaller factor in degradeFactorAt.
    std::erase_if(_windows, [&](const Window &w) {
        return w.until <= until && w.factor >= factor;
    });
    _windows.push_back(Window{until, factor});
}

double
Link::degradeFactorAt(Tick now) const
{
    double factor = 1.0;
    for (const Window &w : _windows)
        if (now < w.until)
            factor = std::min(factor, w.factor);
    return factor;
}

Tick
Link::send(Tick now, unsigned dir, std::uint64_t bytes)
{
    assert(dir < 2);
    assert(bytes > 0);

    const Tick start = std::max(now, _nextFree[dir]);
    double bpc = _config.bytesPerCycle;
    // Simulation time is monotone, so any later send (either direction)
    // starts at or after now: windows closed by now are dead and go.
    if (!_windows.empty()) {
        std::erase_if(_windows, [&](auto &w) { return w.until <= now; });
        if (const double factor = degradeFactorAt(start); factor < 1.0) {
            bpc *= factor;
            ++degradedMessages;
        }
    }
    const Tick service =
        std::max<Tick>(1, Tick(std::ceil(double(bytes) / bpc)));
    _nextFree[dir] = start + service;

    ++messages[dir];
    bytesSent[dir] += bytes;
    busyCycles[dir] += service;

    return start + service + _config.latency;
}

} // namespace griffin::ic
