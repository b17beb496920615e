#include "src/sys/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/sim/log.hh"

namespace griffin::sys {

SweepRunner::SweepRunner(unsigned workers)
    : _workers(workers == 0 ? defaultWorkers() : workers)
{
}

unsigned
SweepRunner::defaultWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::size_t
SweepRunner::submit(SweepJob job)
{
    _jobs.push_back(std::move(job));
    return _jobs.size() - 1;
}

RunResult
SweepRunner::execute(SweepJob &job)
{
    auto workload = job.makeWorkload();
    if (!workload) {
        throw std::runtime_error("sweep job \"" + job.label +
                                 "\": workload factory returned null");
    }
    MultiGpuSystem system(job.config);
    if (job.preRun)
        job.preRun(system);
    RunResult result;
    try {
        result = system.run(*workload);
    } catch (...) {
        if (job.postRun)
            job.postRun(system, nullptr);
        throw;
    }
    if (job.postRun)
        job.postRun(system, &result);
    return result;
}

std::vector<RunResult>
SweepRunner::run()
{
    std::vector<SweepJob> jobs = std::move(_jobs);
    _jobs.clear();

    const std::size_t n = jobs.size();
    std::vector<RunResult> results(n);

    const unsigned workers =
        unsigned(std::min<std::size_t>(_workers, n));
    if (workers <= 1) {
        // Serial reference path: inline, in submission order, with
        // exceptions propagating directly.
        for (std::size_t i = 0; i < n; ++i) {
            results[i] = execute(jobs[i]);
            if (_progress)
                _progress(i + 1, n);
        }
        return results;
    }

    GLOG(Info, "sweep: " << n << " runs across " << workers
                         << " worker threads");

    // Workers claim indices from a shared counter, so jobs start in
    // submission order and long jobs never starve the pool.
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    std::size_t done = 0;
    std::mutex progress_mutex;
    auto workerLoop = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                results[i] = execute(jobs[i]);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            if (_progress) {
                // Serialize the callback so it can render a progress
                // line without its own locking.
                std::lock_guard<std::mutex> lock(progress_mutex);
                _progress(++done, n);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(workerLoop);
    for (std::thread &t : pool)
        t.join();

    // Deterministic error reporting: the earliest-submitted failure
    // wins, exactly as it would have surfaced first in a serial run.
    for (std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

} // namespace griffin::sys
