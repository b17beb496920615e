#include "src/sys/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
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
SweepRunner::submit(std::function<void()> job)
{
    _jobs.push_back(std::move(job));
    return _jobs.size() - 1;
}

void
SweepRunner::run()
{
    const std::vector<std::function<void()>> jobs = std::move(_jobs);
    _jobs.clear();

    const std::size_t n = jobs.size();
    const unsigned workers =
        unsigned(std::min<std::size_t>(_workers, n));
    if (workers > 1)
        GLOG(Info, "sweep: " << n << " runs across " << workers
                             << " worker threads");

    // Workers claim indices from a shared counter, so jobs start in
    // submission order and long jobs never starve the pool.
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    std::size_t done = 0;
    std::mutex progress_mutex;
    const auto claimLoop = [&] {
        for (std::size_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
            try {
                jobs[i]();
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
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(claimLoop);
    claimLoop();
    for (std::thread &t : pool)
        t.join();

    // Deterministic error reporting: the earliest-submitted failure
    // wins, whichever worker count ran the batch.
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace griffin::sys
