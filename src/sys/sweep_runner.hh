/**
 * @file
 * Ordered parallel executor for independent simulations.
 *
 * Every (workload x policy x config) point of a figure or ablation
 * sweep is a self-contained simulation — its own Engine, its own
 * MultiGpuSystem, its own RNG streams — so a sweep is embarrassingly
 * parallel. A caller submits one plain closure per point, which
 * builds, runs and records its simulation straight through and writes
 * its outcome into a slot the caller indexed by submission order; the
 * tables, CSV and JSON reports built from those slots are
 * byte-identical whether the sweep ran on 1 thread or 16.
 *
 * What makes this safe is that all cross-run observability state is
 * thread-local (the obs::Telemetry slot set, the log clock among its
 * slots): a closure installs its sinks on the thread that runs it, and
 * no neighbour ever observes them. Anything else a closure shares with
 * the submitting thread must be synchronized by the caller.
 */

#ifndef GRIFFIN_SYS_SWEEP_RUNNER_HH
#define GRIFFIN_SYS_SWEEP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace griffin::sys {

/**
 * The batch executor. submit() closures, then run() once; the runner
 * may be reused for a subsequent batch afterwards.
 */
class SweepRunner
{
  public:
    /**
     * @param workers worker-thread count; 0 selects defaultWorkers().
     *        With one worker every job runs inline on the calling
     *        thread.
     */
    explicit SweepRunner(unsigned workers = 0);

    /** Enqueue one job. @return its submission index. */
    std::size_t submit(std::function<void()> job);

    /**
     * Run every submitted job. One claim loop serves every worker
     * count: jobs are claimed in submission order, the calling thread
     * is one of the workers, and completion order is unspecified. If
     * any job throws (e.g. the simulation watchdog), every job still
     * runs, then the earliest-submitted exception is rethrown.
     */
    void run();

    /**
     * Optional completion callback, fired as `cb(done, total)` after
     * each job finishes (successfully or not). Serialized: never
     * invoked concurrently with itself, so the callback may touch
     * un-synchronized state (a progress line, a counter). `done` is
     * the number of completed jobs at that moment, which with several
     * workers is not the finishing job's submission index.
     */
    void setProgress(std::function<void(std::size_t, std::size_t)> cb)
    {
        _progress = std::move(cb);
    }

    /** Jobs submitted and not yet run. */
    std::size_t pending() const { return _jobs.size(); }

    /** The resolved worker-thread count. */
    unsigned workers() const { return _workers; }

    /** Hardware concurrency, with a floor of 1. */
    static unsigned defaultWorkers();

  private:
    unsigned _workers;
    std::vector<std::function<void()>> _jobs;
    std::function<void(std::size_t, std::size_t)> _progress;
};

} // namespace griffin::sys

#endif // GRIFFIN_SYS_SWEEP_RUNNER_HH
