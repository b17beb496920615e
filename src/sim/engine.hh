/**
 * @file
 * The simulation engine: an event queue plus run-control helpers that
 * whole-system simulations need (watchdog limit, stop requests, and
 * quiesce detection).
 */

#ifndef GRIFFIN_SIM_ENGINE_HH
#define GRIFFIN_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hh"
#include "src/sim/types.hh"

namespace griffin::sim {

class Watchdog;

/**
 * Drives a simulation to completion.
 *
 * Components keep a reference to the engine and use schedule() for all
 * timing. The engine also provides a watchdog: simulations that exceed
 * maxTicks (a sign of livelock in a model) abort with a diagnostic
 * rather than spinning forever. When a sim::Watchdog is attached, its
 * probe snapshot is folded into that diagnostic.
 */
class Engine
{
  public:
    /** @param max_ticks watchdog limit; maxTick disables it. */
    explicit Engine(Tick max_ticks = maxTick) : _maxTicks(max_ticks) {}

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time in cycles. */
    Tick now() const { return _queue.now(); }

    /**
     * Schedule @p fn to run @p delay cycles from now. @p fn is built in
     * place in its queue entry (see EventQueue::schedule()).
     */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        _queue.schedule(delay, std::forward<F>(fn));
    }

    /** Schedule @p fn at absolute time @p when. */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        _queue.scheduleAt(when, std::forward<F>(fn));
    }

    /** Arm a cancellable timeout @p delay cycles from now. */
    template <typename F>
    TimerId
    scheduleTimeout(Tick delay, F &&fn)
    {
        return _queue.scheduleTimeout(delay, std::forward<F>(fn));
    }

    /** Cancel a timeout armed with scheduleTimeout(). */
    bool cancelTimeout(TimerId id) { return _queue.cancelTimeout(id); }

    /**
     * Run until the event queue drains, a component calls
     * requestStop(), or the watchdog trips.
     *
     * An engine is reusable: each call clears any stop request left
     * over from a previous run (or raised while not running), so a
     * stopped engine can schedule more work and run() again.
     *
     * @return the simulated end time.
     * @throws WatchdogError (a std::runtime_error) if the watchdog
     *         limit is exceeded.
     */
    Tick run();

    /**
     * Attach a liveness watchdog (nullptr detaches). Its probe
     * snapshot is appended to the maxTicks-overrun diagnostic; the
     * system owning the engine is expected to call
     * watchdog->checkQuiesced() after run() returns.
     */
    void setWatchdog(Watchdog *watchdog) { _watchdog = watchdog; }

    /** The attached watchdog, or nullptr. */
    Watchdog *watchdog() const { return _watchdog; }

    /** Run all events up to and including @p limit. */
    Tick runUntil(Tick limit) { return _queue.runUntil(limit); }

    /** Ask the run loop to stop after the current event. */
    void requestStop() { _stopRequested = true; }

    /**
     * True once requestStop() was called during (or since) the last
     * run(); cleared again when the next run() starts.
     */
    bool stopRequested() const { return _stopRequested; }

    /** Total executed events. */
    std::uint64_t eventsExecuted() const { return _queue.eventsExecuted(); }

    /** Pending event count. */
    std::size_t pendingEvents() const { return _queue.size(); }

    /** The underlying queue, for tests that need fine-grained control. */
    EventQueue &queue() { return _queue; }

    /** @name Periodic hooks (observability sampling) @{ */

    /** Called at each elapsed period boundary with the boundary tick. */
    using HookFn = std::function<void(Tick)>;

    /**
     * Register @p fn to run every @p period cycles while run() makes
     * progress. Hooks piggyback on the event loop: a boundary fires
     * just before the first event at-or-after it executes, observing
     * the piecewise-constant simulation state that held at the
     * boundary. Hooks never keep the simulation alive and never
     * advance now() — the run ends exactly when the real workload
     * does. (runUntil() bypasses hooks; only run() services them.)
     *
     * @return an id for removePeriodicHook().
     */
    std::uint64_t addPeriodicHook(Tick period, HookFn fn);

    /** Deregister a hook; unknown ids are ignored. */
    void removePeriodicHook(std::uint64_t id);

    /** @} */

  private:
    struct Hook
    {
        std::uint64_t id;
        Tick period;
        Tick next;
        HookFn fn;
    };

    EventQueue _queue;
    Tick _maxTicks;
    Watchdog *_watchdog = nullptr;
    bool _stopRequested = false;
    std::vector<Hook> _hooks;
    std::uint64_t _nextHookId = 1;

    void fireHooksUpTo(Tick limit);
};

} // namespace griffin::sim

#endif // GRIFFIN_SIM_ENGINE_HH
