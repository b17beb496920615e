/**
 * @file
 * Unit tests for the host-side self-profiler: the no-op scope when
 * the prof slot is empty, dispatch bracketing through a real
 * EventQueue, the self-time partition invariant (bucket self times sum
 * exactly to the measured dispatch time), the first-scope-claims-
 * bracket attribution rule, sites interned by name, scopes outside a
 * bracket, the explicit wall timer, the folded-stack format, and
 * profile merging.
 */

#include <gtest/gtest.h>

#include <string>

#include "src/obs/hostprof.hh"
#include "src/sim/event_queue.hh"

using griffin::obs::HostProfile;
using griffin::obs::HostProfiler;
using griffin::obs::Telemetry;

namespace {

/** Burn a little host time so scope self times are nonzero-ish. */
volatile std::uint64_t g_sink = 0;
void
spin(unsigned iters = 500)
{
    for (unsigned i = 0; i < iters; ++i)
        g_sink = g_sink + i;
}

} // namespace

TEST(HostProfiler, ScopeIsANoOpWhenNothingIsAttached)
{
    ASSERT_EQ(Telemetry::current().prof, nullptr);
    {
        GHPROF_SCOPE("gpu", "l1_tlb");
        spin();
    }
    ASSERT_EQ(Telemetry::current().prof, nullptr);
}

TEST(HostProfiler, AttachDisciplineIsLifo)
{
    HostProfiler outer;
    HostProfiler inner;
    {
        const Telemetry::Scope outer_scope({.prof = &outer});
        EXPECT_EQ(Telemetry::current().prof, &outer);
        {
            const Telemetry::Scope inner_scope({.prof = &inner});
            EXPECT_EQ(Telemetry::current().prof, &inner);
        }
        EXPECT_EQ(Telemetry::current().prof, &outer);
    }
    EXPECT_EQ(Telemetry::current().prof, nullptr);
}

TEST(HostProfiler, CountsDispatchesThroughTheEventQueue)
{
    griffin::sim::EventQueue queue;
    HostProfiler prof;
    const Telemetry::Scope attached({.prof = &prof});
    prof.startTimer();
    unsigned fired = 0;
    for (int i = 0; i < 5; ++i)
        queue.schedule(griffin::Tick(i * 10), [&] { ++fired; });
    while (queue.runOne())
        ;
    prof.stopTimer();

    EXPECT_EQ(fired, 5u);
    EXPECT_EQ(prof.eventsDispatched(), 5u);
    const HostProfile p = prof.profile();
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.events, 5u);
    EXPECT_GE(p.wallNs, p.dispatchNs);
}

TEST(HostProfiler, ScopelessDispatchLandsInUnattributed)
{
    griffin::sim::EventQueue queue;
    HostProfiler prof;
    const Telemetry::Scope attached({.prof = &prof});
    queue.schedule(0, [] { spin(); });
    queue.runOne();

    const HostProfile p = prof.profile();
    const auto *b = p.findBucket("sim", "unattributed");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->count, 1u);
    EXPECT_EQ(b->selfNs, p.dispatchNs);
    EXPECT_EQ(p.attributedNs(), 0u);
    EXPECT_DOUBLE_EQ(p.attributedFraction(), 0.0);
}

TEST(HostProfiler, FirstScopeClaimsTheDispatchBracket)
{
    griffin::sim::EventQueue queue;
    HostProfiler prof;
    const Telemetry::Scope attached({.prof = &prof});
    queue.schedule(0, [] {
        GHPROF_SCOPE("iommu", "walk_done");
        spin();
    });
    queue.runOne();

    const HostProfile p = prof.profile();
    // The bracket's own self time merged into the scope's bucket with
    // count 0, so the count stays the deterministic scope count...
    const auto *b = p.findBucket("iommu", "walk_done");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->count, 1u);
    // ...and nothing is left unattributed.
    EXPECT_EQ(p.findBucket("sim", "unattributed"), nullptr);
    EXPECT_EQ(b->selfNs, p.dispatchNs);
    EXPECT_DOUBLE_EQ(p.attributedFraction(), 1.0);
}

TEST(HostProfiler, NestedScopeSelfTimesPartitionTheDispatchExactly)
{
    griffin::sim::EventQueue queue;
    HostProfiler prof;
    const Telemetry::Scope attached({.prof = &prof});
    for (int i = 0; i < 3; ++i) {
        queue.schedule(griffin::Tick(i), [] {
            GHPROF_SCOPE("gpu", "l1_cache");
            spin();
            {
                GHPROF_SCOPE("gpu", "l2_cache");
                spin();
                {
                    GHPROF_SCOPE("network", "deliver");
                    spin();
                }
            }
            {
                GHPROF_SCOPE("obs", "trace");
                spin();
            }
        });
    }
    while (queue.runOne())
        ;

    const HostProfile p = prof.profile();
    EXPECT_EQ(p.events, 3u);
    ASSERT_EQ(p.buckets.size(), 4u);
    std::uint64_t sum = 0;
    for (const auto &b : p.buckets) {
        EXPECT_EQ(b.count, 3u) << b.name();
        sum += b.selfNs;
    }
    // Self times are elapsed-minus-children: they partition the
    // measured dispatch time exactly, with no double counting.
    EXPECT_EQ(sum, p.dispatchNs);
    EXPECT_DOUBLE_EQ(p.attributedFraction(), 1.0);
    // The obs;trace scope is the only telemetry share.
    const auto *obs = p.findBucket("obs", "trace");
    ASSERT_NE(obs, nullptr);
    EXPECT_EQ(p.obsNs(), obs->selfNs);
}

TEST(HostProfiler, ClaimingScopeWithChildAndSiblingPartitionsExactly)
{
    griffin::sim::EventQueue queue;
    HostProfiler prof;
    const Telemetry::Scope attached({.prof = &prof});
    queue.schedule(0, [] {
        spin(); // bracket time before the claiming scope opens
        {
            GHPROF_SCOPE("driver", "service_batch");
            spin();
            {
                GHPROF_SCOPE("pmc", "read_done");
                spin();
            }
            spin();
        }
        spin(); // bracket time between the two top-level scopes
        {
            GHPROF_SCOPE("obs", "trace");
            spin();
        }
        spin(); // bracket time after the last scope closes
    });
    queue.runOne();

    const HostProfile p = prof.profile();
    ASSERT_EQ(p.buckets.size(), 3u);
    std::uint64_t sum = 0;
    for (const auto &b : p.buckets) {
        EXPECT_EQ(b.count, 1u) << b.name();
        sum += b.selfNs;
    }
    EXPECT_EQ(sum, p.dispatchNs);
    EXPECT_EQ(p.findBucket("sim", "unattributed"), nullptr);
}

TEST(HostProfiler, OneNameAtTwoCallSitesIsOneBucket)
{
    griffin::sim::EventQueue queue;
    HostProfiler prof;
    const Telemetry::Scope attached({.prof = &prof});
    queue.schedule(0, [] { GHPROF_SCOPE("obs", "trace"); });
    queue.schedule(1, [] {
        GHPROF_SCOPE("gpu", "l1_cache");
        GHPROF_SCOPE("obs", "trace");
    });
    while (queue.runOne())
        ;

    const HostProfile p = prof.profile();
    ASSERT_EQ(p.buckets.size(), 2u);
    EXPECT_EQ(p.buckets[0].name(), "gpu;l1_cache");
    EXPECT_EQ(p.buckets[1].name(), "obs;trace");
    EXPECT_EQ(p.buckets[1].count, 2u);
}

TEST(HostProfiler, ScopeOutsideABracketIsChargedButNotDispatched)
{
    HostProfiler prof;
    const Telemetry::Scope attached({.prof = &prof});
    {
        GHPROF_SCOPE("sim", "periodic_hook");
        spin(5000);
    }

    const HostProfile p = prof.profile();
    const auto *b = p.findBucket("sim", "periodic_hook");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->count, 1u);
    EXPECT_GT(b->selfNs, 0u);
    EXPECT_EQ(p.events, 0u);
    EXPECT_EQ(p.dispatchNs, 0u);
}

TEST(HostProfiler, BucketOrderIsDeterministic)
{
    griffin::sim::EventQueue queue;
    HostProfiler prof;
    const Telemetry::Scope attached({.prof = &prof});
    queue.schedule(0, [] { GHPROF_SCOPE("zeta", "b"); });
    queue.schedule(1, [] { GHPROF_SCOPE("alpha", "z"); });
    queue.schedule(2, [] { GHPROF_SCOPE("alpha", "a"); });
    while (queue.runOne())
        ;

    const HostProfile p = prof.profile();
    ASSERT_EQ(p.buckets.size(), 3u);
    EXPECT_EQ(p.buckets[0].name(), "alpha;a");
    EXPECT_EQ(p.buckets[1].name(), "alpha;z");
    EXPECT_EQ(p.buckets[2].name(), "zeta;b");
}

TEST(HostProfiler, StopTimerFreezesTheWallClock)
{
    HostProfiler prof;
    EXPECT_EQ(prof.profile().wallNs, 0u); // never started
    prof.startTimer();
    spin(5000);
    prof.stopTimer();
    const std::uint64_t first = prof.profile().wallNs;
    spin(5000);
    prof.stopTimer(); // idempotent: keeps the first reading
    EXPECT_EQ(prof.profile().wallNs, first);
}

TEST(HostProfile, EventsPerSecUsesWallTime)
{
    HostProfile p;
    p.events = 2000;
    p.wallNs = 1'000'000'000;
    EXPECT_DOUBLE_EQ(p.eventsPerSec(), 2000.0);
    p.wallNs = 0;
    EXPECT_DOUBLE_EQ(p.eventsPerSec(), 0.0);
}

TEST(HostProfile, MergeSumsBucketsAndRestoresOrder)
{
    HostProfile a;
    a.enabled = true;
    a.events = 10;
    a.wallNs = 100;
    a.dispatchNs = 80;
    a.buckets = {{"gpu", "l1_tlb", 4, 40}, {"net", "deliver", 6, 40}};

    HostProfile b;
    b.enabled = true;
    b.events = 5;
    b.wallNs = 50;
    b.dispatchNs = 30;
    b.buckets = {{"cu", "issue", 2, 10}, {"gpu", "l1_tlb", 3, 20}};

    a.merge(b);
    EXPECT_EQ(a.events, 15u);
    EXPECT_EQ(a.wallNs, 150u);
    EXPECT_EQ(a.dispatchNs, 110u);
    ASSERT_EQ(a.buckets.size(), 3u);
    EXPECT_EQ(a.buckets[0].name(), "cu;issue");
    EXPECT_EQ(a.buckets[1].name(), "gpu;l1_tlb");
    EXPECT_EQ(a.buckets[1].count, 7u);
    EXPECT_EQ(a.buckets[1].selfNs, 60u);
    EXPECT_EQ(a.buckets[2].name(), "net;deliver");

    // Merging a disabled (never-profiled) run is a no-op on enabled.
    HostProfile none;
    none.merge(a);
    EXPECT_TRUE(none.enabled);
    HostProfile still;
    still.merge(HostProfile{});
    EXPECT_FALSE(still.enabled);
}

TEST(HostProfile, FoldedWritesOneLinePerBucket)
{
    HostProfile p;
    p.enabled = true;
    p.dispatchNs = 70;
    p.buckets = {{"driver", "service_batch", 3, 50},
                 {"obs", "sampler", 2, 20}};

    // "component;event selfNs", in bucket order; counts are not part
    // of the format.
    EXPECT_EQ(p.folded(), "driver;service_batch 50\nobs;sampler 20\n");
    EXPECT_EQ(HostProfile{}.folded(), "");
}

TEST(HostProfile, AttributionHelpersHandleEmptyProfiles)
{
    const HostProfile p;
    EXPECT_EQ(p.unattributedNs(), 0u);
    EXPECT_EQ(p.attributedNs(), 0u);
    EXPECT_DOUBLE_EQ(p.attributedFraction(), 1.0);
    EXPECT_DOUBLE_EQ(p.obsFraction(), 0.0);
    EXPECT_EQ(p.findBucket("gpu", "l1_tlb"), nullptr);
}
