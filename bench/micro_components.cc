/**
 * @file
 * google-benchmark microbenchmarks for the hot substrate components:
 * event queue and engine-loop throughput, the off cost of a profiler
 * scope, cache and TLB lookups, the DPC classifier, access counters,
 * link arbitration and fabric round trips. These bound the simulator's
 * own speed (events/second), which determines how large a workload the
 * harness can regenerate.
 */

#include <benchmark/benchmark.h>

#include <iterator>
#include <vector>

#include "src/core/dpc.hh"
#include "src/gpu/access_counter.hh"
#include "src/interconnect/link.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/cache.hh"
#include "src/mem/page_table.hh"
#include "src/obs/hostprof.hh"
#include "src/sim/engine.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/rng.hh"
#include "src/xlat/tlb.hh"

using namespace griffin;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const std::size_t batch = std::size_t(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < batch; ++i)
            q.schedule(Tick(i % 97), [&sink] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

static void
BM_EventQueueSameTickCascade(benchmark::State &state)
{
    // Zero-delay continuations: an event's callback schedules the next
    // hop at the same tick. Rare in the model (a few dozen per figure
    // sweep), but the queue must sustain them without growing: each
    // hop appends to the current tick's list and reuses the node the
    // previous one freed.
    const std::uint64_t hops = std::uint64_t(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t left = hops;
        sim::InlineFn<void()> step;
        step = [&] {
            if (--left > 0)
                q.schedule(0, [&] { step(); });
        };
        q.schedule(0, [&] { step(); });
        q.run();
        benchmark::DoNotOptimize(left);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(hops));
}
BENCHMARK(BM_EventQueueSameTickCascade)->Arg(4096);

static void
BM_EventQueueHopChain(benchmark::State &state)
{
    // Latency-hop chains (TLB -> cache -> DRAM shapes): every hop
    // moves time forward a little, so events flow through the ladder
    // buckets.
    const std::uint64_t hops = std::uint64_t(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t left = hops;
        sim::InlineFn<void()> step;
        step = [&] {
            if (--left > 0)
                q.schedule(1 + left % 13, [&] { step(); });
        };
        q.schedule(1, [&] { step(); });
        q.run();
        benchmark::DoNotOptimize(left);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(hops));
}
BENCHMARK(BM_EventQueueHopChain)->Arg(4096);

static void
BM_EventQueueTimerChurn(benchmark::State &state)
{
    // Chaos-style recovery timers: armed on the common path and
    // cancelled on the common path. Measures scheduleTimeout +
    // cancelTimeout round trips, including tombstone reclaim.
    const std::size_t batch = std::size_t(state.range(0));
    std::vector<sim::TimerId> ids(batch);
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < batch; ++i)
            ids[i] = q.scheduleTimeout(Tick(100 + i % 1000),
                                       [&sink] { ++sink; });
        // Cancel all but every 16th; the survivors fire.
        for (std::size_t i = 0; i < batch; ++i)
            if (i % 16 != 0)
                q.cancelTimeout(ids[i]);
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(batch));
}
BENCHMARK(BM_EventQueueTimerChurn)->Arg(1024)->Arg(16384);

static void
BM_EventQueueFarHorizonMix(benchmark::State &state)
{
    // Deadlines far beyond the ladder window land in the spill heap.
    // When the near future drains the window jumps to the spill's
    // earliest deadline, then each roll moves the deadlines it now
    // covers into their buckets.
    const std::size_t batch = std::size_t(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < batch; ++i) {
            const Tick when =
                (i % 3 == 0) ? Tick(100000 + i * 37) : Tick(i % 800);
            q.scheduleAt(when, [&sink] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(batch));
}
BENCHMARK(BM_EventQueueFarHorizonMix)->Arg(16384);

static void
BM_EventQueueFabricHop(benchmark::State &state)
{
    // Fabric deliveries: K concurrent chains, each re-scheduling
    // 502-1023 ticks ahead (two link latencies plus serialization).
    // The ladder is never empty, so only a window that rolls with time
    // keeps these hops out of the spill heap.
    const std::uint64_t chains = std::uint64_t(state.range(0));
    const std::uint64_t hops = chains * 256;
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t scheduled = 0;
        std::uint32_t rng = 1;
        sim::InlineFn<void()> step;
        step = [&] {
            if (scheduled == hops)
                return;
            ++scheduled;
            rng = rng * 1664525u + 1013904223u;
            q.schedule(502 + (rng >> 16) % 522, [&] { step(); });
        };
        for (std::uint64_t k = 0; k < chains; ++k)
            step();
        q.run();
        benchmark::DoNotOptimize(rng);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(hops));
}
BENCHMARK(BM_EventQueueFabricHop)->Arg(16)->Arg(256);

namespace {

/**
 * The whole model's schedule in miniature: 860 chains (the most
 * events a fig12 simulation holds pending at once), each hopping 1, 10
 * or 28 cycles (TLB and cache shapes), a DRAM access (150) or a fabric
 * delivery (502-1023), about 3 events per tick. @p Sched is
 * sim::EventQueue or sim::Engine.
 */
template <typename Sched>
struct ModelMix
{
    static constexpr std::uint64_t chains = 860;

    Sched &sched;
    std::uint64_t hops;
    std::uint64_t scheduled = 0;
    std::uint32_t rng = 1;

    void
    step()
    {
        static constexpr Tick shortHops[] = {1, 1, 1, 1, 10, 10, 10,
                                             28, 28, 150, 150};
        if (scheduled == hops)
            return;
        ++scheduled;
        rng = rng * 1664525u + 1013904223u;
        const std::uint32_t pick = (rng >> 8) % 16;
        const Tick delay = pick < std::size(shortHops)
                               ? shortHops[pick]
                               : 502 + (rng >> 16) % 522;
        sched.schedule(delay, [this] { step(); });
    }

    void
    start()
    {
        for (std::uint64_t k = 0; k < chains; ++k)
            step();
    }
};

} // namespace

static void
BM_EventQueueModelMix(benchmark::State &state)
{
    const std::uint64_t hops =
        ModelMix<sim::EventQueue>::chains * std::uint64_t(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        ModelMix<sim::EventQueue> mix{q, hops};
        mix.start();
        q.run();
        benchmark::DoNotOptimize(mix.rng);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(hops));
}
BENCHMARK(BM_EventQueueModelMix)->Arg(64);

static void
BM_EngineModelMix(benchmark::State &state)
{
    // BM_EventQueueModelMix's schedule through sim::Engine::run(), the
    // loop every simulation runs: per tick a settle, the periodic-hook
    // check, the first event and the watchdog check, then the tick's
    // other events back to back. Arg 1 adds one periodic hook (a
    // sampler's shape) every 1000 cycles.
    const std::uint64_t hops = ModelMix<sim::Engine>::chains * 64;
    for (auto _ : state) {
        sim::Engine engine;
        std::uint64_t samples = 0;
        if (state.range(0))
            engine.addPeriodicHook(1000, [&samples](Tick) { ++samples; });
        ModelMix<sim::Engine> mix{engine, hops};
        mix.start();
        engine.run();
        benchmark::DoNotOptimize(mix.rng);
        benchmark::DoNotOptimize(samples);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(hops));
}
BENCHMARK(BM_EngineModelMix)->Arg(0)->Arg(1);

static void
BM_HostProfScopeOff(benchmark::State &state)
{
    // What every instrumented callback pays in an unprofiled run: a
    // GHPROF_SCOPE opened and closed with no profiler attached.
    if (obs::Telemetry::current().prof) {
        state.SkipWithError("a host profiler is attached");
        return;
    }
    std::uint64_t sink = 0;
    for (auto _ : state) {
        GHPROF_SCOPE("bench", "scope_off");
        benchmark::DoNotOptimize(++sink);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_HostProfScopeOff);

static void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache cache(mem::CacheConfig{std::uint64_t(state.range(0)), 16, 1});
    sim::Rng rng(7);
    for (auto _ : state) {
        const Addr addr = rng.nextBelow(8 * 1024 * 1024);
        benchmark::DoNotOptimize(cache.access(addr, rng.chance(0.3)));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_CacheAccess)->Arg(16 * 1024)->Arg(2 * 1024 * 1024);

/**
 * Selective flushes of a warm GPU L2 (2 MB, 16-way), as an ACUD batch
 * issues them. The cache holds every line of 512 pages (a quarter of
 * them dirty); each iteration flushes the next Arg resident pages, and
 * once all have been flushed the cache is refilled outside the timed
 * region. Items are pages.
 */
static void
BM_CacheFlushPages(benchmark::State &state)
{
    constexpr unsigned pageShift = 12;
    constexpr PageId residentPages = 512;
    const PageId n = PageId(state.range(0));
    mem::Cache cache(mem::CacheConfig{2 * 1024 * 1024, 16, 20});
    const auto warm = [&] {
        for (Addr a = 0; a < (residentPages << pageShift); a += 64)
            cache.access(a, (a & 0xff) == 0);
    };
    warm();
    std::vector<PageId> pages(n);
    PageId next = 0;
    for (auto _ : state) {
        if (next + n > residentPages) {
            state.PauseTiming();
            warm();
            next = 0;
            state.ResumeTiming();
        }
        for (PageId i = 0; i < n; ++i)
            pages[i] = next + i;
        next += n;
        benchmark::DoNotOptimize(cache.flushPages(pages, pageShift));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(n));
}
BENCHMARK(BM_CacheFlushPages)->Arg(1)->Arg(8)->Arg(64);

static void
BM_TlbLookupHit(benchmark::State &state)
{
    xlat::Tlb tlb(xlat::TlbConfig{32, 16, 1});
    for (PageId p = 0; p < 512; ++p)
        tlb.fill(p, 1);
    PageId p = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(p));
        p = (p + 1) % 512;
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_TlbLookupHit);

/**
 * A per-CU L1 TLB (1 x 32) under a CU's access pattern. Arg 0: runs of
 * 16 lookups to one of 32 resident pages (a wavefront's coalesced
 * lines). Arg 1: lookups to pages never filled, each a full scan of
 * the set.
 */
static void
BM_TlbLookupL1(benchmark::State &state)
{
    const bool misses = state.range(0) != 0;
    xlat::Tlb tlb(xlat::TlbConfig{1, 32, 1});
    for (PageId p = 0; p < 32; ++p)
        tlb.fill(p, 1);
    sim::Rng rng(5);
    PageId page = 0;
    unsigned run = 0;
    for (auto _ : state) {
        if (run-- == 0) {
            run = 15;
            page = rng.nextBelow(32) + (misses ? 32 : 0);
        }
        benchmark::DoNotOptimize(tlb.lookup(page));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_TlbLookupL1)->Arg(0)->Arg(1);

static void
BM_AccessCounterRecord(benchmark::State &state)
{
    gpu::AccessCounter counter(100);
    sim::Rng rng(3);
    for (auto _ : state)
        counter.record(rng.nextBelow(std::uint64_t(state.range(0))));
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_AccessCounterRecord)->Arg(50)->Arg(500);

/**
 * The table's shape on a streaming kernel: 60 hot pages plus a
 * streamed page touched in bursts of 8, so every stream step misses a
 * full table whose smallest count is above 1.
 */
static void
BM_AccessCounterRecordHotSet(benchmark::State &state)
{
    gpu::AccessCounter counter(100);
    sim::Rng rng(3);
    PageId stream = 1000;
    unsigned burst = 0;
    for (auto _ : state) {
        if (rng.chance(0.5)) {
            counter.record(rng.nextBelow(60));
            continue;
        }
        if (burst-- == 0) {
            burst = 7;
            ++stream;
        }
        counter.record(stream);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_AccessCounterRecordHotSet);

static void
BM_DpcEndPeriod(benchmark::State &state)
{
    core::GriffinConfig cfg;
    mem::PageTable pt(12, 5);
    const std::uint64_t pages = std::uint64_t(state.range(0));
    for (PageId p = 0; p < pages; ++p)
        pt.setLocation(p, DeviceId(1 + p % 4));

    core::Dpc dpc(4, cfg);
    sim::Rng rng(11);
    for (auto _ : state) {
        state.PauseTiming();
        for (DeviceId g = 1; g <= 4; ++g) {
            std::vector<gpu::PageCount> counts;
            for (int i = 0; i < 20; ++i)
                counts.push_back(gpu::PageCount{
                    rng.nextBelow(pages),
                    std::uint32_t(rng.nextRange(1, 255))});
            dpc.addCounts(g, counts);
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(dpc.endPeriod(pt));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_DpcEndPeriod)->Arg(1000)->Arg(10000);

static void
BM_LinkSend(benchmark::State &state)
{
    ic::Link link(ic::LinkConfig{32.0, 250});
    Tick now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(link.send(now, 0, 64));
        now += 2;
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_LinkSend);

/**
 * Request/reply pairs through ic::Network, every hop carrying a
 * 16-byte {this, slot}-sized capture: 16 chains on each of 4 GPUs,
 * each sending its next request when the reply lands. Arg 0 uses the
 * translation sizes (64 B each way), arg 1 a DCA read (16 B request,
 * 72 B reply).
 */
static void
BM_NetworkRoundTrip(benchmark::State &state)
{
    using Sizes = ic::MessageSizes;
    const bool dca = state.range(0) != 0;
    const std::uint64_t request =
        dca ? Sizes::dcaReadRequest : Sizes::xlatRequest;
    const std::uint64_t reply = dca ? Sizes::dcaReadReply : Sizes::xlatReply;
    constexpr std::uint64_t trips = 4096;

    struct Fabric
    {
        Fabric(std::uint64_t request, std::uint64_t reply,
               std::uint64_t left)
            : request(request), reply(reply), left(left)
        {
        }

        sim::Engine engine;
        ic::Network net{engine, 5, ic::LinkConfig{}};
        std::uint64_t request, reply, left;

        void
        issue(DeviceId gpu)
        {
            if (left == 0)
                return;
            --left;
            net.send(gpu, cpuDeviceId, request, [this, gpu] {
                net.send(cpuDeviceId, gpu, reply,
                         [this, gpu] { issue(gpu); });
            });
        }
    };
    for (auto _ : state) {
        Fabric f(request, reply, trips);
        for (unsigned chain = 0; chain < 16; ++chain)
            for (DeviceId gpu = 1; gpu <= 4; ++gpu)
                f.issue(gpu);
        f.engine.run();
        benchmark::DoNotOptimize(f.net.messagesDelivered);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trips));
}
BENCHMARK(BM_NetworkRoundTrip)->Arg(0)->Arg(1);

static void
BM_PageTableOccupancy(benchmark::State &state)
{
    mem::PageTable pt(12, 5);
    for (PageId p = 0; p < 10000; ++p)
        pt.setLocation(p, DeviceId(1 + p % 4));
    for (auto _ : state)
        benchmark::DoNotOptimize(pt.hasHighestOccupancy(2));
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_PageTableOccupancy);

BENCHMARK_MAIN();
