/**
 * @file
 * The one telemetry attach point: a thread_local set of sink slots,
 * plus the instrumented model moments that fan out to them.
 *
 * Every sink (trace session, latency histograms, fault spans, page
 * stats, time series, host profiler) and the simulated clock that
 * stamps log lines and page events are reached through a slot in the
 * calling thread's Telemetry set. The set is a plain struct of
 * pointers, constant-initialised (constinit) to all-null, so a guard
 * at an instrumentation site is one thread_local load and a branch,
 * with no TLS init-guard call; an empty slot records nothing.
 *
 * Attaching is one RAII Telemetry::Scope: it saves the thread's set,
 * installs the non-null slots its owner provides over it, and
 * restores the saved set on exit (a watchdog throw included). Slots
 * the owner leaves null are inherited, which is how a bench's trace
 * session reaches the components of the system it runs.
 *
 * Each simulation is single-threaded, but independent simulations run
 * concurrently on worker threads (sys::SweepRunner); every thread has
 * its own set, so parallel runs never record into each other's sinks.
 *
 * A model moment that feeds more than one sink is one plain function
 * below. It fans out to whichever slots are set, in a fixed order, so
 * the sinks that reconcile with each other (page-table commits vs
 * page-stats commits, the fault-latency count vs the time series'
 * fault percentiles) do so because there is one call per moment, not
 * because call sites happen to sit side by side. The time series'
 * counts need no call at all: they are differences of the run's own
 * aggregates (obs/timeseries.hh). A trace instant that feeds only the
 * trace stays at its call site.
 */

#ifndef GRIFFIN_OBS_TELEMETRY_HH
#define GRIFFIN_OBS_TELEMETRY_HH

#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace griffin::sim {
class Engine;
} // namespace griffin::sim

namespace griffin::obs {

class FaultSpans;
class HostProfiler;
class PageStats;
class TimeSeries;
class TraceSession;

/**
 * An empty histogram of fault-scale latencies: faults, their
 * critical-path stages and page transfers.
 */
inline sim::Histogram
faultScaleHistogram()
{
    return sim::Histogram{250.0, 400};
}

/**
 * The run-level latency histograms, a plain copyable aggregate so
 * RunResult can carry a snapshot out of the system. Histogram samples
 * are a handful of integer ops, which is why the system fills this
 * slot on every run, traced or not: it feeds the p50/p95/p99 columns
 * of the JSON run report.
 *
 * Bucketing trades resolution for range; percentile() clamps into
 * [min, max], so the tails stay honest even past the last bucket.
 */
struct LatencyHistograms
{
    /** Fault raise (driver notified) -> page landed on the GPU. */
    sim::Histogram faultLatency = faultScaleHistogram();
    /** One CPU->GPU page transfer, PMC dispatch -> last byte. */
    sim::Histogram cpuMigrationLatency = faultScaleHistogram();
    /** One GPU->GPU page transfer, PMC dispatch -> last byte. */
    sim::Histogram interGpuMigrationLatency = faultScaleHistogram();
    /** One remote DCA access, fabric entry -> requester resumed. */
    sim::Histogram remoteAccessLatency{100.0, 400};
};

/** The calling thread's sink slots; a null slot records nothing. */
struct Telemetry
{
    TraceSession *trace = nullptr;
    LatencyHistograms *latency = nullptr;
    FaultSpans *spans = nullptr;
    PageStats *pages = nullptr;
    TimeSeries *series = nullptr;
    HostProfiler *prof = nullptr;
    /** The run's engine: log lines and page events read its tick. */
    const sim::Engine *clock = nullptr;

    /** The calling thread's slot set. */
    static Telemetry &current() { return s_current; }

    class Scope;

  private:
    static thread_local constinit Telemetry s_current;
};

/**
 * Install the non-null slots of a set over the calling thread's
 * current one for the enclosing block; the whole previous set comes
 * back on exit. Scopes nest LIFO on one thread.
 */
class Telemetry::Scope
{
  public:
    explicit Scope(const Telemetry &slots);
    ~Scope() { s_current = _saved; }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Telemetry _saved;
};

/** @name Instrumented moments (one call each) @{ */

/**
 * The IOMMU raised a fault on @p page for @p gpu: opens the fault's
 * span with its pre-fault stages (walk queue, walk, policy) and traces
 * the raise plus the start of its flow arrow.
 * @return the fault's span id; invalidFaultId with no span sink.
 */
FaultId faultRaised(DeviceId gpu, PageId page, Tick origin, Tick walk_start,
                    Tick walk_end, Tick now);

/** The reply retiring fault @p fid reached @p gpu: the span closes. */
void faultResumed(FaultId fid, DeviceId gpu, Tick now);

/**
 * A fault was serviced @p latency ticks after it was raised (its page
 * landed, or its migration was aborted): one fault-latency sample and
 * one time-series fault latency.
 */
void faultServiced(Tick latency);

/**
 * A driver migration timeout aborted @p page's CPU -> @p gpu transfer
 * and degraded the page to DCA: the abort, fallback and recovery page
 * events, the fault's service (faultServiced), and the trace instant.
 */
void migrationAborted(PageId page, DeviceId gpu, Tick latency, Tick now);

/**
 * PMC @p src finished streaming @p page into @p dst: the migration
 * latency sample, the trace span [@p begin, @p end], and the end of
 * fault @p fid's transfer stage.
 */
void transferCommitted(DeviceId src, DeviceId dst, PageId page, FaultId fid,
                       Tick begin, Tick end);

/** The page table moved @p page from @p from to @p to. */
void pageCommitted(PageId page, DeviceId from, DeviceId to);

/** @} */

} // namespace griffin::obs

#endif // GRIFFIN_OBS_TELEMETRY_HH
