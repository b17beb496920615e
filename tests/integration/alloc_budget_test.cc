/**
 * @file
 * Heap-allocation budget of a run. The request state of the hot path
 * (CU accesses, fabric messages, DCA round trips, IOMMU translations)
 * lives in component-owned slot pools, so a run allocates only while
 * those pools and the models' tables grow, plus per-kernel and
 * per-migration bookkeeping. A box brought back onto a per-op path
 * costs about one allocation per event and fails this test.
 *
 * This binary replaces the global operator new to count allocations
 * made inside MultiGpuSystem::run(); nothing else runs concurrently.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>

#include "src/sys/multi_gpu_system.hh"
#include "src/workloads/workload.hh"

using namespace griffin;

namespace {

bool g_counting = false;
std::uint64_t g_allocs = 0;

} // namespace

void *
operator new(std::size_t n)
{
    if (g_counting)
        ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

namespace {

// Out of line, so GCC does not pair the inlined free() with operator
// new at call sites (-Wmismatched-new-delete).
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

void operator delete(void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }

namespace {

/** Run-phase allocations per simulated event the budget allows. */
constexpr double kBudget = 0.1;

class AllocBudget
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

} // namespace

TEST_P(AllocBudget, RunAllocatesUnderBudgetPerEvent)
{
    const auto &[app, griffin] = GetParam();
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 32;
    wcfg.seed = 42;
    auto workload = wl::makeWorkload(app, wcfg);
    ASSERT_NE(workload, nullptr);

    // Telemetry and chaos stay at their defaults: off.
    sys::MultiGpuSystem system(griffin
                                   ? sys::SystemConfig::griffinDefault()
                                   : sys::SystemConfig::baseline());
    g_allocs = 0;
    g_counting = true;
    const sys::RunResult result = system.run(*workload);
    g_counting = false;

    const std::uint64_t events = system.engine().eventsExecuted();
    ASSERT_GT(events, 0u);
    ASSERT_EQ(result.auditViolations, 0u);
    const double per_event = double(g_allocs) / double(events);
    EXPECT_LE(per_event, kBudget)
        << g_allocs << " allocations over " << events << " events";
}

INSTANTIATE_TEST_SUITE_P(
    Scale32, AllocBudget,
    ::testing::Combine(::testing::Values("MT", "SC"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_griffin" : "_firstTouch");
    });
