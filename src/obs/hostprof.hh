/**
 * @file
 * Host-side self-profiler: where does the *simulator* spend wall-clock
 * time? Every other observability layer (trace, spans, pagestats,
 * timeseries) measures simulated ticks; this one measures host
 * nanoseconds, attributed per component and event type, so "sweeps
 * feel slow" turns into numbers a perf PR can gate on.
 *
 * Attribution model:
 *  - sim::EventQueue's dispatch brackets every event it runs with
 *    beginDispatch()/endDispatch() when the prof slot is set; the
 *    sum of those brackets is the *measured dispatch wall time*.
 *  - Instrumented event bodies open RAII scopes (GHPROF_SCOPE) naming
 *    their component ("network", "iommu", "driver", "pmc", "gpu",
 *    "policy", "dispatcher", "chaos", "obs", ...) and event type.
 *    Scopes nest; a scope's *self time* is its elapsed time minus the
 *    elapsed time of its children, so bucket self-times partition the
 *    measured time exactly (no double counting).
 *  - The dispatch bracket's own self time (the InlineEvent call and
 *    scope setup around the outermost scope) is attributed to that
 *    outermost scope's bucket — it is overhead *of* that component's
 *    event. Only dispatches that never open a scope land in the
 *    "sim;unattributed" bucket, which is how the attribution fraction
 *    stays honest: it drops exactly when an event type is missing its
 *    instrumentation.
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
 * run.
 */

#ifndef GRIFFIN_OBS_HOSTPROF_HH
#define GRIFFIN_OBS_HOSTPROF_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
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
        /** Self time: elapsed minus time inside child scopes. */
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

    /**
     * Parse folded() output back into a profile. Bucket counts and
     * the wall/event totals are not part of the folded format;
     * dispatchNs is reconstructed as the sum of bucket self times.
     * @return nullopt on any malformed line.
     */
    static std::optional<HostProfile> parseFolded(const std::string &text);
};

/**
 * The profiler. Owned by MultiGpuSystem (built only when
 * SystemConfig::hostProf), installed in the prof slot for the
 * duration of run().
 */
class HostProfiler
{
  private:
    /**
     * One live scope on the (intrusive, stack-allocated) stack. No
     * member initialisers: a Scope with no profiler attached never
     * writes its frame.
     */
    struct Frame
    {
        const char *component;
        const char *event;
        std::uint64_t childNs;
        Frame *parent;
    };

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

    /** @name Raw inspection (tests) @{ */
    std::uint64_t eventsDispatched() const { return _events; }
    std::uint64_t dispatchNs() const { return _dispatchNs; }
    /** @} */

    /**
     * One RAII attribution scope. Constructing is near-free when no
     * profiler is attached (a thread_local load plus a branch), so
     * instrumentation sites stay on the hot path unconditionally.
     * @p component and @p event must be string literals (or otherwise
     * outlive the profiler): buckets key on the pointers and resolve
     * to content only when the profile is built.
     */
    class Scope
    {
      public:
        Scope(const char *component, const char *event)
            : _prof(Telemetry::current().prof)
        {
            if (!_prof)
                return;
            _frame = Frame{component, event, 0, _prof->_top};
            _prof->_top = &_frame;
            // First scope of a dispatch claims the dispatch bracket:
            // its component absorbs the bracket's own self time.
            if (_frame.parent == &_prof->_rootFrame &&
                !_prof->_rootFrame.component) {
                _prof->_rootFrame.component = component;
                _prof->_rootFrame.event = event;
            }
            _begin = std::chrono::steady_clock::now();
        }

        ~Scope()
        {
            if (!_prof)
                return;
            const auto ns = std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - _begin)
                    .count());
            _prof->_top = _frame.parent;
            const std::uint64_t child =
                _frame.childNs < ns ? _frame.childNs : ns;
            _prof->record(_frame.component, _frame.event, ns - child, 1);
            if (_frame.parent)
                _frame.parent->childNs += ns;
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostProfiler *_prof;
        /** Written only when a profiler is attached. */
        Frame _frame;
        union
        {
            /** Written only when a profiler is attached. */
            std::chrono::steady_clock::time_point _begin;
        };
    };

  private:
    friend class Scope;

    struct KeyHash
    {
        std::size_t
        operator()(const std::pair<const char *, const char *> &k) const
        {
            const auto a = std::hash<const void *>()(k.first);
            const auto b = std::hash<const void *>()(k.second);
            return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
        }
    };

    struct Counts
    {
        std::uint64_t count = 0;
        std::uint64_t selfNs = 0;
    };

    void record(const char *component, const char *event,
                std::uint64_t self_ns, std::uint64_t count);

    /** Pointer-keyed raw buckets; content-merged by profile(). */
    std::unordered_map<std::pair<const char *, const char *>, Counts,
                       KeyHash>
        _buckets;

    /** Sentinel frame representing the current dispatch bracket. */
    Frame _rootFrame{};
    Frame *_top = nullptr;
    std::chrono::steady_clock::time_point _dispatchBegin;

    std::uint64_t _dispatchNs = 0;
    std::uint64_t _events = 0;

    std::chrono::steady_clock::time_point _startTime;
    std::uint64_t _wallNs = 0;
    bool _stopped = false;
};

/** Open an attribution scope for the rest of the enclosing block. */
#define GHPROF_CONCAT2(a, b) a##b
#define GHPROF_CONCAT(a, b) GHPROF_CONCAT2(a, b)
#define GHPROF_SCOPE(component, event)                                 \
    ::griffin::obs::HostProfiler::Scope GHPROF_CONCAT(                 \
        ghprofScope_, __LINE__)(component, event)

} // namespace griffin::obs

#endif // GRIFFIN_OBS_HOSTPROF_HH
