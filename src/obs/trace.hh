/**
 * @file
 * Structured trace sink: typed simulation events serialized as Chrome
 * trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
 * chrome://tracing.
 *
 * Design constraints:
 *  - zero overhead when no session is attached: every instrumentation
 *    point is guarded by `TraceSession::activeFor(cat)`, one
 *    thread_local slot load plus a category-mask test;
 *  - the simulated cycle count is the timebase (1 cycle = 1 "us" in
 *    the viewer, since the model clock is 1 GHz the absolute numbers
 *    read as nanoseconds);
 *  - one trace "thread" per device/component (driver, iommu, gpuN,
 *    pmcN, executor, dpc, linkN...), one trace "process" per run so a
 *    multi-run bench produces one navigable file.
 *
 * Each simulation is single-threaded, but independent simulations may
 * run concurrently on different OS threads (sys::SweepRunner). The
 * active session therefore lives in the calling thread's trace slot
 * (obs/telemetry.hh): a session records only the events of the thread
 * it was attached on, and parallel runs each attach their own session.
 * writeMerged() folds the per-run sessions back into one document in a
 * deterministic, submission-ordered way, so a parallel sweep's trace
 * file is byte-identical to a serial one.
 */

#ifndef GRIFFIN_OBS_TRACE_HH
#define GRIFFIN_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/obs/telemetry.hh"
#include "src/sim/types.hh"

namespace griffin::obs {

/**
 * Event categories, used both as the trace "cat" field and as an
 * enable mask so expensive high-frequency categories (per-message
 * link occupancy, per-line DCA service) can stay off by default.
 */
enum Category : std::uint32_t
{
    CatFault = 1u << 0,     ///< page faults, batching, parking
    CatMigration = 1u << 1, ///< page transfers CPU->GPU and GPU->GPU
    CatShootdown = 1u << 2, ///< TLB shootdowns (CPU- and GPU-side)
    CatDrain = 1u << 3,     ///< ACUD drain / full-flush episodes
    CatPolicy = 1u << 4,    ///< DPC periods, classification, CPMS
    CatNet = 1u << 5,       ///< per-message link busy spans (hot!)
    CatDca = 1u << 6,       ///< per-line remote DCA service (hot!)
    CatChaos = 1u << 7,     ///< injected faults and recovery actions
};

/** Everything except the two per-message firehose categories. */
inline constexpr std::uint32_t defaultCategories =
    CatFault | CatMigration | CatShootdown | CatDrain | CatPolicy | CatChaos;

/** Every category, including the hot ones. */
inline constexpr std::uint32_t allCategories = 0xff;

/** The trace "cat" string for one category bit. */
const char *categoryName(Category cat);

/**
 * Builder for an event's "args" object. Only ever constructed behind
 * an activeFor() guard, so argument formatting costs nothing when
 * tracing is off.
 */
class TraceArgs
{
  public:
    TraceArgs &add(const char *key, std::uint64_t value);
    TraceArgs &add(const char *key, unsigned value)
    {
        return add(key, std::uint64_t(value));
    }
    TraceArgs &add(const char *key, double value);
    TraceArgs &add(const char *key, const char *value);
    TraceArgs &add(const char *key, const std::string &value);

    /** The serialized object body, "{...}"; empty string if no args. */
    std::string json() const;

  private:
    std::string _body;
    void key(const char *k);
};

/**
 * One recording session. Components emit typed events into the active
 * session; writeMerged() produces a Chrome trace-event document.
 */
class TraceSession
{
  public:
    explicit TraceSession(std::uint32_t categories = defaultCategories);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** @name Session attachment @{ */

    /**
     * Make this the calling thread's trace slot (Telemetry::current),
     * saving the previous occupant; detach() puts it back. Both are
     * idempotent, and a detach out of LIFO order leaves the slot
     * alone. A session must be attached, detached and recorded into
     * on a single thread; naming processes before handing it to that
     * thread is fine as long as the hand-off synchronizes (e.g.
     * thread creation).
     */
    void attach();

    /** Stop recording into this session. */
    void detach();

    /** The calling thread's active session, or nullptr. */
    static TraceSession *active() { return Telemetry::current().trace; }

    /**
     * The active session iff @p cat is enabled on it; the single
     * guard every instrumentation point uses.
     */
    static TraceSession *
    activeFor(Category cat)
    {
        TraceSession *t = Telemetry::current().trace;
        return (t && (t->_categories & cat)) ? t : nullptr;
    }

    /** @} */

    /**
     * Start a new trace "process": subsequent events group under
     * @p name. Benches call this once per run so one file holds a
     * whole figure's worth of runs.
     */
    void beginProcess(const std::string &name);

    /** @name Event emission @{ */

    /** A point event at @p ts on @p track. */
    void instant(Category cat, const std::string &track,
                 const std::string &name, Tick ts,
                 const TraceArgs &args = {});

    /** A span [@p begin, @p end] on @p track. */
    void complete(Category cat, const std::string &track,
                  const std::string &name, Tick begin, Tick end,
                  const TraceArgs &args = {});

    /** Flow-arrow phase: where @p id's arrow starts, passes, ends. */
    enum class FlowPhase { Begin, Step, End };

    /**
     * One point of a flow arrow (ph 's'/'t'/'f'). All points sharing
     * @p id form one arrow chain across tracks; each point binds to
     * the slice enclosing it on @p track, which is how the viewer
     * draws causal links between the spans of one fault.
     */
    void flow(Category cat, const std::string &track,
              const std::string &name, Tick ts, std::uint64_t id,
              FlowPhase phase);

    /** @} */

    std::size_t eventCount() const { return _events.size(); }
    std::uint32_t categories() const { return _categories; }

    /**
     * Serialize sessions as ONE Chrome trace-event document; a single
     * session is writeMerged(os, {&session}). Every named process of
     * every session becomes a distinct pid, numbered in session order,
     * and all events share one timestamp-sorted timeline (the sort is
     * stable, so same-tick events keep session order, then emission
     * order). The output depends only on the
     * order and contents of @p sessions — never on which threads
     * recorded them — which is what makes parallel sweep traces
     * byte-identical to serial ones. Null entries are skipped.
     */
    static void writeMerged(std::ostream &os,
                            const std::vector<const TraceSession *> &sessions);

  private:
    struct Event
    {
        char ph; ///< 'i' instant, 'X' complete,
                 ///< 's'/'t'/'f' flow begin/step/end
        std::uint32_t pid;
        std::uint32_t tid;
        Tick ts;
        Tick dur;             ///< complete events only
        std::uint64_t flowId; ///< flow events only
        const char *cat;      ///< static category name
        std::string name;
        std::string args;
    };

    std::uint32_t _categories;
    std::uint32_t _pid = 0;
    std::uint32_t _nextTid = 1;
    std::vector<std::string> _processNames; ///< index = pid
    /** (pid, track name) -> tid, plus the ordered name list. */
    std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> _tracks;
    std::vector<std::pair<std::uint32_t, std::string>> _trackNames;
    std::vector<Event> _events;

    TraceSession *_prevActive = nullptr;
    bool _attached = false;

    std::uint32_t trackId(const std::string &track);
    static void writeEvent(std::ostream &os, const Event &ev,
                           std::uint32_t pid);
};

} // namespace griffin::obs

#endif // GRIFFIN_OBS_TRACE_HH
