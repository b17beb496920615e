/**
 * @file
 * The scheduler's far-future tier stays far-future on whole runs.
 * Fabric deliveries land 502-1023 ticks ahead (two 250-cycle links
 * plus serialization), inside the ladder's 1024-tick window as long as
 * the window rolls with time. A window that only re-anchors when the
 * near future drains sends 15-19% of these runs' events through the
 * spill heap; a rolling one leaves only the periodic hooks, recovery
 * deadlines and the rare full-window hop there.
 *
 * The same runs bound the queue's node arena: freed nodes are reused
 * before it grows, so its capacity follows the peak number of pending
 * events (at most 860 in any fig12 simulation), not the run's length
 * or its busiest tick's history.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>

#include "src/sys/multi_gpu_system.hh"
#include "src/workloads/workload.hh"

using namespace griffin;

namespace {

/** Largest share of executed events that may pass through the spill. */
constexpr double kMaxSpillShare = 0.03;

/**
 * Most arena nodes a run may hold. Buckets that each kept the largest
 * buffer they ever held retained at least 7,256 entries per fig12
 * simulation.
 */
constexpr std::size_t kMaxNodes = 4096;

class SpillShare
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

} // namespace

TEST_P(SpillShare, FabricHopsStayInTheLadder)
{
    const auto &[app, griffin] = GetParam();
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = 32;
    wcfg.seed = 42;
    auto workload = wl::makeWorkload(app, wcfg);
    ASSERT_NE(workload, nullptr);

    sys::MultiGpuSystem system(griffin
                                   ? sys::SystemConfig::griffinDefault()
                                   : sys::SystemConfig::baseline());
    system.run(*workload);

    const auto &queue = system.engine().queue();
    const std::uint64_t events = queue.eventsExecuted();
    ASSERT_GT(events, 0u);
    const double share = double(queue.spillInserts()) / double(events);
    EXPECT_LT(share, kMaxSpillShare)
        << queue.spillInserts() << " spill inserts over " << events
        << " events";
    EXPECT_LE(queue.nodesAllocated(), kMaxNodes);
}

INSTANTIATE_TEST_SUITE_P(
    Scale32, SpillShare,
    ::testing::Combine(::testing::Values("MT", "SC"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_griffin" : "_firstTouch");
    });
