/**
 * @file
 * Thread-pooled batch executor for independent simulations.
 *
 * Every (workload x policy x config) point of a figure or ablation
 * sweep is a self-contained simulation — its own Engine, its own
 * MultiGpuSystem, its own RNG streams — so a sweep is embarrassingly
 * parallel. The SweepRunner accepts a list of (label, SystemConfig,
 * workload-factory) jobs, runs them across N worker threads, and
 * returns the RunResults in deterministic submission order: tables,
 * CSV and JSON reports built from the result vector are byte-identical
 * whether the sweep ran on 1 thread or 16.
 *
 * What makes this safe is that all cross-run observability state is
 * thread-local (the obs::Telemetry slot set, the sim::Log clock): a
 * job's sinks are installed on the worker thread that runs it and
 * never observed by its neighbours.
 * The per-run hooks (preRun/postRun) also execute on the worker
 * thread; anything they share with the submitting thread must be
 * synchronized by the caller (bench::ObsState merges fragments under
 * a mutex).
 */

#ifndef GRIFFIN_SYS_SWEEP_RUNNER_HH
#define GRIFFIN_SYS_SWEEP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sys/multi_gpu_system.hh"
#include "src/sys/system_config.hh"
#include "src/workloads/workload.hh"

namespace griffin::sys {

/** One simulation point of a sweep. */
struct SweepJob
{
    /** Unique run label ("MT/griffin", "SC/griffin/alpha=0.25"). */
    std::string label;

    /** The system to build (copied; jobs never share a system). */
    SystemConfig config;

    /**
     * Builds the workload. Invoked on the worker thread, so the
     * factory must be self-contained (capture plain values, not
     * references to mutable shared state).
     */
    std::function<std::unique_ptr<wl::Workload>()> makeWorkload;

    /**
     * Optional: runs on the worker thread after the system is built
     * and before the simulation starts — the place to attach per-run
     * observability (trace sessions, samplers, access probes).
     */
    std::function<void(MultiGpuSystem &)> preRun;

    /**
     * Optional: runs on the worker thread after the simulation ends
     * (with a null result when it threw), while the system is still
     * alive — the place to detach sinks and hand per-run fragments to
     * a merge point (synchronize anything shared!).
     */
    std::function<void(MultiGpuSystem &, const RunResult *)> postRun;
};

/**
 * The batch executor. submit() jobs, then run() once; the runner may
 * be reused for a subsequent batch afterwards.
 */
class SweepRunner
{
  public:
    /**
     * @param workers worker-thread count; 0 selects defaultWorkers().
     *        A single worker executes inline on the calling thread —
     *        that is the fully serial reference path.
     */
    explicit SweepRunner(unsigned workers = 0);

    /** Enqueue one job. @return its submission index. */
    std::size_t submit(SweepJob job);

    /**
     * Execute every submitted job and return their results indexed by
     * submission order. Jobs are claimed by workers in submission
     * order, but completion order is unspecified — only the returned
     * vector's order is guaranteed. If any job throws (e.g. the
     * simulation watchdog), every job still runs to completion, then
     * the earliest-submitted exception is rethrown.
     */
    std::vector<RunResult> run();

    /**
     * Optional completion callback, fired as `cb(done, total)` after
     * each job finishes (successfully or not). Serialized: never
     * invoked concurrently with itself, so the callback may touch
     * un-synchronized state (a progress line, a counter). `done` is
     * the number of completed jobs at that moment, which on the
     * parallel path is not the finishing job's submission index.
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
    std::vector<SweepJob> _jobs;
    std::function<void(std::size_t, std::size_t)> _progress;

    static RunResult execute(SweepJob &job);
};

} // namespace griffin::sys

#endif // GRIFFIN_SYS_SWEEP_RUNNER_HH
