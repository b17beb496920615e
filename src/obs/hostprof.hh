/**
 * @file
 * Host-side self-profiler: where does the *simulator* spend wall-clock
 * time? Every other observability layer (trace, spans, pagestats,
 * timeseries) measures simulated ticks; this one measures host
 * nanoseconds, attributed per component and event type, so "sweeps
 * feel slow" turns into numbers a perf PR can gate on.
 *
 * Attribution model:
 *  - Every GHPROF_SCOPE call site is a static Site naming its
 *    component ("network", "iommu", "driver", "pmc", "gpu", "policy",
 *    "dispatcher", "chaos", "obs", ...) and event type. On its first
 *    profiled use a site is interned by content into a dense id, so
 *    two call sites with the same name share one bucket and the
 *    profiler keeps its counts and self times in flat per-site arrays.
 *  - sim::EventQueue's dispatch brackets every event it runs with
 *    beginDispatch()/endDispatch() when the prof slot is set; the
 *    sum of those brackets is the *measured dispatch wall time*.
 *  - One timeline: every clock read charges the time since the
 *    previous read to the site on top of the scope stack. Scopes
 *    nest, so a site's self time excludes its children by
 *    construction, and inside a bracket the charged intervals tile it:
 *    bucket self times partition the measured time exactly.
 *  - The first scope opened directly in a bracket claims it: the
 *    bracket's own time (the callback call and everything outside the
 *    scopes) belongs to that site's bucket, which is overhead *of*
 *    that component's event. Since every interval around the claiming
 *    scope is charged to its site anyway, that scope reads no clock.
 *    Only dispatches that never open a scope land in the
 *    "sim;unattributed" bucket, which is how the attribution fraction
 *    stays honest: it drops exactly when an event type is missing its
 *    instrumentation.
 *  - A scope opened outside a bracket (the engine's periodic hooks)
 *    reads the clock on entry and exit: its time lands in its bucket
 *    but not in the dispatch time.
 *
 * The telemetry-overhead meter is nothing special: the obs sinks
 * (TraceSession, Sampler, PageStats, TimeSeries) open "obs;..."
 * scopes inside their recording paths. Those paths only execute when
 * that telemetry's slot is set, so the obs share is structurally zero
 * when telemetry is off.
 *
 * Determinism contract: bucket *names and counts* are a pure function
 * of the simulated event sequence, so they are byte-identical across
 * --jobs=N. The nanosecond fields are host measurements and are not;
 * reports keep them in a clearly-marked "host" subsection that
 * sys::compare treats as warn-only and excludes from drift.
 *
 * The profiler is the `prof` slot of the thread's telemetry set
 * (obs/telemetry.hh): near-zero cost when off (a scope is one
 * thread_local load and a branch), one instance per concurrent sweep
 * run. The site registry is shared by every thread.
 */

#ifndef GRIFFIN_OBS_HOSTPROF_HH
#define GRIFFIN_OBS_HOSTPROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/telemetry.hh"

namespace griffin::obs {

/**
 * The copyable end-of-run digest RunResult carries out of the system
 * and the JSON report serializes as "host_profile". Buckets are kept
 * sorted by (component, event) so serialization is deterministic.
 */
struct HostProfile
{
    bool enabled = false;

    /** Host wall time from startTimer() to stopTimer(), in ns. */
    std::uint64_t wallNs = 0;
    /** Sum of per-event dispatch brackets (the measured time). */
    std::uint64_t dispatchNs = 0;
    /** Events dispatched while installed (deterministic). */
    std::uint64_t events = 0;

    struct Bucket
    {
        std::string component;
        std::string event;
        /** Scope entries (deterministic across --jobs=N). */
        std::uint64_t count = 0;
        /** Self time: host time charged while this site was on top. */
        std::uint64_t selfNs = 0;

        std::string name() const { return component + ";" + event; }
    };

    /** Sorted by component, then event. */
    std::vector<Bucket> buckets;

    /** Dispatched events per host second (0 when nothing measured). */
    double eventsPerSec() const;

    /** Self time of the "sim;unattributed" bucket. */
    std::uint64_t unattributedNs() const;
    /** dispatchNs minus the unattributed remainder. */
    std::uint64_t attributedNs() const;
    /** attributedNs over dispatchNs, in [0, 1] (1 when nothing ran). */
    double attributedFraction() const;

    /** Total self time of "obs" buckets: the telemetry overhead. */
    std::uint64_t obsNs() const;
    /** obsNs over dispatchNs (0 when nothing ran). */
    double obsFraction() const;

    /** Bucket lookup by exact (component, event); nullptr if absent. */
    const Bucket *findBucket(const std::string &component,
                             const std::string &event) const;

    /**
     * Fold @p other into this profile: buckets merge by (component,
     * event) with counts and times summed; wall/dispatch/event totals
     * add. Merging N per-run profiles in label order is deterministic
     * in shape (names + counts); the aggregated wall time is summed
     * per-run time, not elapsed time, when runs overlapped.
     */
    void merge(const HostProfile &other);

    /**
     * Folded-stack rendering, one "component;event selfNs" line per
     * bucket, consumable by flamegraph.pl / speedscope.
     */
    std::string folded() const;
};

/**
 * One GHPROF_SCOPE call site. Constant-initialized, so a
 * function-local static needs no init guard; its dense id is interned
 * on the first profiled use and cached. The names must be string
 * literals (the registry keeps the pointers).
 */
struct Site
{
    const char *component;
    const char *event;
    /** The interned id plus one; 0 until the first profiled use. */
    std::atomic<std::uint32_t> cached{0};

    /** The dense id shared by every site with this name. */
    std::uint32_t
    id()
    {
        const std::uint32_t c = cached.load(std::memory_order_relaxed);
        return c ? c - 1 : intern();
    }

    /** Look the name up in the registry (adding it), cache the id. */
    std::uint32_t intern();
};

/**
 * The profiler. Owned by MultiGpuSystem (built only when
 * SystemConfig::hostProf), installed in the prof slot for the
 * duration of run().
 */
class HostProfiler
{
  public:
    HostProfiler() = default;

    HostProfiler(const HostProfiler &) = delete;
    HostProfiler &operator=(const HostProfiler &) = delete;

    /** @name Dispatch bracket (sim::EventQueue's dispatch) @{ */
    void beginDispatch();
    void endDispatch();
    /** @} */

    /** Start the wall clock (restarting a stopped one). */
    void startTimer();

    /**
     * Freeze the wall clock (startTimer() -> now). Call once the run
     * is over, before profile(); later calls keep the first reading.
     */
    void stopTimer();

    /** Build the copyable digest (deterministic bucket order). */
    HostProfile profile() const;

    /** Events dispatched so far (tests). */
    std::uint64_t eventsDispatched() const { return _events; }

    /**
     * One RAII attribution scope. With no profiler attached it costs a
     * thread_local load and a branch on entry and a branch on exit, so
     * instrumentation sites stay on the hot path unconditionally; the
     * profiled work sits out of line in enter() and leave().
     */
    class Scope
    {
      public:
        explicit Scope(Site &site) : _prof(Telemetry::current().prof)
        {
            if (_prof) [[unlikely]]
                _prof->enter(site);
        }

        ~Scope()
        {
            if (_prof) [[unlikely]]
                _prof->leave();
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostProfiler *_prof;
    };

  private:
    /** Host time in ns; only differences mean anything. */
    static std::uint64_t
    now()
    {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /** _top outside any bracket: the time is nobody's. */
    static constexpr std::uint32_t kIdle = ~std::uint32_t(0);
    /** _top in a bracket no scope has claimed yet. */
    static constexpr std::uint32_t kUnclaimed = kIdle - 1;

    struct Counts
    {
        std::uint64_t count = 0;
        std::uint64_t selfNs = 0;
    };

    /** @p site's slot, grown into on first use. */
    Counts &
    at(std::uint32_t site)
    {
        if (site >= _sites.size())
            _sites.resize(site + 1);
        return _sites[site];
    }

    /** Count one entry of @p site and make it the charged site. */
    [[gnu::noinline]] void enter(Site &site);

    /** Close the innermost scope: charge it, restore its outer site. */
    [[gnu::noinline]] void leave();

    /**
     * Read the clock and charge the time since the previous read to
     * the site on top. Callers skip it when the charged site does not
     * change: the interval then runs on to the same site.
     */
    void
    charge()
    {
        const std::uint64_t t = now();
        if (_top < _sites.size())
            _sites[_top].selfNs += t - _last;
        _last = t;
    }

    /** Per interned site id; sites this profiler never saw stay 0. */
    std::vector<Counts> _sites;
    /** The site the running interval is charged to. */
    std::uint32_t _top = kIdle;
    /** Per open scope, the site charged before it opened. */
    std::vector<std::uint32_t> _stack;
    /** The previous clock read. */
    std::uint64_t _last = 0;
    std::uint64_t _dispatchBegin = 0;

    std::uint64_t _dispatchNs = 0;
    std::uint64_t _events = 0;

    /** When the wall clock started; 0 while it is not running. */
    std::uint64_t _startTime = 0;
    std::uint64_t _wallNs = 0;
};

/** Open an attribution scope for the rest of the enclosing block. */
#define GHPROF_CONCAT2(a, b) a##b
#define GHPROF_CONCAT(a, b) GHPROF_CONCAT2(a, b)
#define GHPROF_SCOPE(component, event)                                 \
    static constinit ::griffin::obs::Site GHPROF_CONCAT(               \
        ghprofSite_, __LINE__){component, event};                      \
    ::griffin::obs::HostProfiler::Scope GHPROF_CONCAT(                 \
        ghprofScope_, __LINE__)(GHPROF_CONCAT(ghprofSite_, __LINE__))

} // namespace griffin::obs

#endif // GRIFFIN_OBS_HOSTPROF_HH
