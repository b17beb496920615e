#include "src/sim/engine.hh"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/obs/hostprof.hh"
#include "src/sim/watchdog.hh"

namespace griffin::sim {

Tick
Engine::run()
{
    // Reset per-run stop state: a stop requested during (or after) a
    // previous run must not make this run return immediately.
    _stopRequested = false;
    for (;;) {
        // Per-tick work: settle the queue, fire due hooks, run the
        // tick's first event and check the watchdog. None of it can
        // change until time advances, so the rest of the tick's events
        // run back to back, checking only for a stop request.
        const Tick next = _queue.nextTime();
        if (next == maxTick)
            break; // drained
        if (!_hooks.empty())
            fireHooksUpTo(next);
        if (!_queue.runOne())
            break;
        if (_queue.now() > _maxTicks) {
            std::string msg = "simulation watchdog tripped at tick " +
                              std::to_string(_queue.now()) +
                              ": model is likely livelocked";
            if (_watchdog)
                msg += "\nprobe snapshot:\n" + _watchdog->snapshot();
            throw WatchdogError(msg);
        }
        while (!_stopRequested && _queue.runSameTick()) {
        }
        if (_stopRequested)
            break;
    }
    return _queue.now();
}

std::uint64_t
Engine::addPeriodicHook(Tick period, HookFn fn)
{
    assert(period > 0);
    const std::uint64_t id = _nextHookId++;
    // First boundary: the next multiple of period strictly after now.
    const Tick next = (now() / period + 1) * period;
    _hooks.push_back(Hook{id, period, next, std::move(fn)});
    return id;
}

void
Engine::removePeriodicHook(std::uint64_t id)
{
    _hooks.erase(std::remove_if(_hooks.begin(), _hooks.end(),
                                [id](const Hook &h) { return h.id == id; }),
                 _hooks.end());
}

void
Engine::fireHooksUpTo(Tick limit)
{
    // Fire all boundaries <= limit in global time order so multiple
    // hooks interleave deterministically.
    for (;;) {
        Hook *earliest = nullptr;
        for (Hook &h : _hooks) {
            if (h.next <= limit && (!earliest || h.next < earliest->next))
                earliest = &h;
        }
        if (!earliest)
            return;
        const Tick boundary = earliest->next;
        earliest->next += earliest->period;
        // Hooks fire between dispatches, so this scope opens outside
        // a dispatch bracket and reads the clock itself: its time
        // lands in the profile's buckets but not dispatchNs
        // (hook-driven sinks open nested "obs;..." scopes below it).
        GHPROF_SCOPE("sim", "periodic_hook");
        earliest->fn(boundary);
    }
}

} // namespace griffin::sim
