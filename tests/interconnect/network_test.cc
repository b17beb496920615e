/**
 * @file
 * Unit tests for the Link and Network models: latency, bandwidth
 * serialization, duplex independence, congestion at a hot device, and
 * in-place delivery of the receivers' callbacks.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "src/interconnect/link.hh"
#include "src/interconnect/switch.hh"
#include "src/sim/engine.hh"
#include "src/sys/chaos.hh"

using namespace griffin;
using ic::Link;
using ic::LinkConfig;
using ic::Network;

TEST(Link, SingleMessageLatency)
{
    Link link(LinkConfig{32.0, 250});
    // 64 B at 32 B/cy = 2 cycles service + 250 latency.
    EXPECT_EQ(link.send(0, 0, 64), 252u);
}

TEST(Link, MinimumOneCycleService)
{
    Link link(LinkConfig{32.0, 10});
    EXPECT_EQ(link.send(0, 0, 8), 11u);
}

TEST(Link, BackToBackSerializes)
{
    Link link(LinkConfig{32.0, 250});
    EXPECT_EQ(link.send(0, 0, 64), 252u);
    EXPECT_EQ(link.send(0, 0, 64), 254u); // starts at t=2
    EXPECT_EQ(link.nextFree(0), 4u);
}

TEST(Link, DirectionsAreIndependent)
{
    Link link(LinkConfig{32.0, 250});
    link.send(0, 0, 3200); // occupies upstream 100 cycles
    EXPECT_EQ(link.send(0, 1, 64), 252u); // downstream unaffected
}

TEST(Link, IdleGapResetsStart)
{
    Link link(LinkConfig{32.0, 100});
    link.send(0, 0, 64);
    EXPECT_EQ(link.send(1000, 0, 64), 1102u);
}

TEST(Link, StatsPerDirection)
{
    Link link(LinkConfig{32.0, 100});
    link.send(0, 0, 64);
    link.send(0, 0, 64);
    link.send(0, 1, 128);
    EXPECT_EQ(link.messages[0], 2u);
    EXPECT_EQ(link.messages[1], 1u);
    EXPECT_EQ(link.bytesSent[0], 128u);
    EXPECT_EQ(link.bytesSent[1], 128u);
    EXPECT_EQ(link.busyCycles[0], 4u);
    EXPECT_EQ(link.busyCycles[1], 4u);
}

TEST(Link, DegradeWindowScalesServiceTime)
{
    Link link(LinkConfig{32.0, 250});
    // At quarter bandwidth, 64 B takes 8 service cycles, not 2.
    link.degrade(1000, 0.25);
    EXPECT_LT(link.degradeFactorAt(0), 1.0);
    EXPECT_EQ(link.send(0, 0, 64), 258u);
    EXPECT_EQ(link.degradedMessages, 1u);
}

TEST(Link, DegradeWindowExpires)
{
    Link link(LinkConfig{32.0, 250});
    link.degrade(100, 0.25);
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(100), 1.0);
    // A message starting after the window sees full bandwidth again.
    EXPECT_EQ(link.send(100, 0, 64), 352u);
    EXPECT_EQ(link.degradedMessages, 0u);
}

TEST(Link, DegradeExtendsNotShrinks)
{
    Link link(LinkConfig{32.0, 250});
    link.degrade(1000, 0.25);
    link.degrade(500, 0.25); // shorter window must not shrink it
    EXPECT_LT(link.degradeFactorAt(900), 1.0);
}

TEST(Link, OverlappingDegradeKeepsMostDegradedFactor)
{
    Link link(LinkConfig{32.0, 250});
    // A severe fault is in effect until t=1000; a milder one arrives
    // and lasts longer. Over the overlap the severe factor must win —
    // the milder injection must not silently repair the link.
    link.degrade(1000, 0.25);
    link.degrade(2000, 0.5);
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(500), 0.25);
    // 64 B at quarter bandwidth: 8 service cycles.
    EXPECT_EQ(link.send(0, 0, 64), 258u);
    // After the severe window closes only the milder one applies.
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(1500), 0.5);
    EXPECT_EQ(link.send(1500, 0, 64), 1754u);
    // Both windows closed: full bandwidth.
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(2000), 1.0);
    EXPECT_EQ(link.send(3000, 0, 64), 3252u);
    EXPECT_EQ(link.degradedMessages, 2u);
}

TEST(Link, MilderOverlapAppliesAfterSevereWindowCloses)
{
    Link link(LinkConfig{32.0, 250});
    // Injection order must not matter: severe-then-milder and
    // milder-then-severe resolve identically over the overlap.
    link.degrade(2000, 0.5);
    link.degrade(1000, 0.25);
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(500), 0.25);
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(1500), 0.5);
    EXPECT_DOUBLE_EQ(link.degradeFactorAt(2500), 1.0);
}

TEST(Link, HealedLinkMatchesAFreshOne)
{
    // Once its only degradation window has closed, a link serializes
    // exactly as one that never had a window: the first send prunes
    // the window, the rest take the window-free path.
    Link fresh(LinkConfig{32.0, 250});
    Link healed(LinkConfig{32.0, 250});
    healed.degrade(100, 0.25);
    for (const std::uint64_t bytes : {8, 16, 64, 72, 110, 4104}) {
        SCOPED_TRACE(bytes);
        EXPECT_EQ(healed.send(100, 0, bytes), fresh.send(100, 0, bytes));
        EXPECT_EQ(healed.busyCycles[0], fresh.busyCycles[0]);
        EXPECT_EQ(healed.bytesSent[0], fresh.bytesSent[0]);
        EXPECT_EQ(healed.nextFree(0), fresh.nextFree(0));
    }
    EXPECT_EQ(healed.degradedMessages, 0u);
    // ceil(bytes / 32), at least 1: 1 + 1 + 2 + 3 + 4 + 129.
    EXPECT_EQ(fresh.busyCycles[0], 140u);
}

TEST(Network, DeliversAfterTwoHops)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    Tick delivered = 0;
    net.send(1, 2, 64, [&] { delivered = engine.now(); });
    engine.run();
    // src up: 2 service + 100; dst down: starts at 102, +2+100 = 204.
    EXPECT_EQ(delivered, 204u);
    EXPECT_EQ(net.messagesDelivered, 1u);
}

TEST(Network, HotDestinationCongests)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    // Three senders target device 1 simultaneously with large
    // messages: deliveries serialize on device 1's downstream wire.
    std::vector<Tick> times;
    for (DeviceId src = 2; src <= 4; ++src)
        net.send(src, 1, 3200, [&] { times.push_back(engine.now()); });
    engine.run();
    ASSERT_EQ(times.size(), 3u);
    EXPECT_EQ(times[0], 400u);           // 100 ser + 100, then +100+100
    EXPECT_EQ(times[1] - times[0], 100u); // serialized at 100 cy each
    EXPECT_EQ(times[2] - times[1], 100u);
}

TEST(Network, DistinctDestinationsDoNotContend)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    std::vector<Tick> times;
    net.send(1, 2, 3200, [&] { times.push_back(engine.now()); });
    net.send(3, 4, 3200, [&] { times.push_back(engine.now()); });
    engine.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], times[1]);
}

TEST(Network, SameSourceSerializesOnEgress)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    std::vector<Tick> times;
    net.send(1, 2, 3200, [&] { times.push_back(engine.now()); });
    net.send(1, 3, 3200, [&] { times.push_back(engine.now()); });
    engine.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[1] - times[0], 100u); // egress wire shared
}

TEST(Network, PageTransferTiming)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 250});
    Tick delivered = 0;
    // A 4 KB page + header: the dominant migration cost.
    net.send(1, 2, 4096 + 8, [&] { delivered = engine.now(); });
    engine.run();
    // ceil(4104/32)=129 service twice + 250 latency twice.
    EXPECT_EQ(delivered, 2u * (129 + 250));
}

TEST(NetworkDeath, LoopbackRejected)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    EXPECT_DEATH(net.send(1, 1, 64, [] {}), "loopback");
}

TEST(Network, FullBudgetCaptureIsDeliveredOnceAtArrival)
{
    // The callback is the delivery event itself, built in its queue
    // entry: a capture of InlineFn's whole budget travels intact.
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    int hits = 0;
    Tick at = 0;
    const std::array<std::uint64_t, 4> words = {1, 2, 3, 4};
    auto deliver = [words, hits = &hits, at = &at, &engine] {
        ++*hits;
        *at = engine.now();
        EXPECT_EQ(words[0] + words[3], 5u);
    };
    static_assert(sizeof(deliver) == sim::EventFn::capacity);
    net.send(1, 2, 64, deliver);
    engine.run();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(at, 204u);
    EXPECT_EQ(engine.pendingEvents(), 0u);
}

TEST(Network, EventFnRvalueIsDeliveredOnceAtArrival)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    int hits = 0;
    Tick at = 0;
    sim::EventFn deliver = [&] {
        ++hits;
        at = engine.now();
    };
    net.send(1, 2, 64, std::move(deliver));
    engine.run();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(at, 204u);
    EXPECT_EQ(engine.eventsExecuted(), 1u);
}

TEST(Network, SameTickArrivalsRunInSendOrder)
{
    // Three messages on disjoint wires land on the same tick; they run
    // in the order they were sent, not in device order.
    sim::Engine engine;
    Network net(engine, 7, LinkConfig{32.0, 100});
    std::vector<int> order;
    std::vector<Tick> times;
    const auto record = [&](int id) {
        return [&, id] {
            order.push_back(id);
            times.push_back(engine.now());
        };
    };
    net.send(5, 6, 64, record(0));
    net.send(1, 2, 64, record(1));
    net.send(3, 4, 64, record(2));
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(times, (std::vector<Tick>{204, 204, 204}));
}

TEST(Network, NackedMessageIsDeliveredOnceAtTheRetriedTime)
{
    sim::Engine engine;
    Network net(engine, 5, LinkConfig{32.0, 100});
    sys::ChaosConfig cc;
    cc.linkFaultRate = 1.0; // every attempt is NACKed...
    cc.linkMaxRetries = 2;  // ...up to the retry bound
    cc.linkRetryDelay = 500;
    sys::FaultInjector injector(cc);
    net.setFaultInjector(&injector);
    int hits = 0;
    Tick at = 0;
    net.send(1, 2, 64, [&] {
        ++hits;
        at = engine.now();
    });
    engine.run();
    // Upstream: 0 -> 102, retried at 602 -> 704, again at 1204 -> 1306;
    // then downstream 1306 -> 1408.
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(at, 1408u);
    EXPECT_EQ(net.messagesNacked, 1u);
    EXPECT_EQ(net.link(1).messages[0], 3u);
}
