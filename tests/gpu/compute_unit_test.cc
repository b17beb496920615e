/**
 * @file
 * Unit tests for gpu::ComputeUnit: trace execution, wavefront
 * concurrency limits, pause/resume, and the conventional pipeline
 * flush (work discard + replay).
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/gpu/compute_unit.hh"
#include "src/sim/engine.hh"

using namespace griffin;
using gpu::ComputeUnit;
using gpu::CuConfig;
using gpu::CuMemoryInterface;

namespace {

/** Memory stub with scriptable latency; records accesses in order. */
class StubMemory : public CuMemoryInterface
{
  public:
    explicit StubMemory(sim::Engine &engine) : _engine(engine) {}

    void
    cuAccess(unsigned cu_id, Addr vaddr, bool is_write,
             gpu::OpDone done) override
    {
        (void)cu_id;
        accesses.push_back({vaddr, is_write});
        ++inflight;
        maxInflight = std::max(maxInflight, inflight);
        _engine.schedule(latency, [this, done] {
            --inflight;
            done();
        });
    }

    std::vector<std::pair<Addr, bool>> accesses;
    Tick latency = 10;
    unsigned inflight = 0;
    unsigned maxInflight = 0;

  private:
    sim::Engine &_engine;
};

wl::Workgroup
makeWorkgroup(unsigned wavefronts, unsigned ops_per_wf,
              std::uint32_t delay = 1)
{
    wl::Workgroup wg;
    wg.id = 0;
    for (unsigned wf = 0; wf < wavefronts; ++wf) {
        wl::WavefrontTrace trace;
        for (unsigned i = 0; i < ops_per_wf; ++i) {
            trace.ops.push_back(
                wl::MemOp{Addr(wf) * 0x10000 + i * 64, delay, false});
        }
        wg.wavefronts.push_back(std::move(trace));
    }
    return wg;
}

} // namespace

TEST(ComputeUnit, ExecutesAllOpsAndRetires)
{
    sim::Engine engine;
    StubMemory memory(engine);
    ComputeUnit cu(engine, memory, 0, CuConfig{});

    bool done = false;
    cu.startWorkgroup(makeWorkgroup(2, 5), [&] { done = true; });
    EXPECT_TRUE(cu.busy());
    engine.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(cu.busy());
    EXPECT_EQ(cu.opsIssued, 10u);
    EXPECT_EQ(cu.opsCompleted, 10u);
    EXPECT_EQ(memory.accesses.size(), 10u);
    EXPECT_EQ(cu.workgroupsRetired, 1u);
}

TEST(ComputeUnit, EmptyWorkgroupRetiresImmediately)
{
    sim::Engine engine;
    StubMemory memory(engine);
    ComputeUnit cu(engine, memory, 0, CuConfig{});
    bool done = false;
    cu.startWorkgroup(wl::Workgroup{}, [&] { done = true; });
    engine.run();
    EXPECT_TRUE(done);
}

TEST(ComputeUnit, WavefrontsRunConcurrently)
{
    sim::Engine engine;
    StubMemory memory(engine);
    memory.latency = 100;
    ComputeUnit cu(engine, memory, 0, CuConfig{16, 1});
    cu.startWorkgroup(makeWorkgroup(8, 3), nullptr);
    engine.run();
    EXPECT_EQ(memory.maxInflight, 8u);
}

TEST(ComputeUnit, MaxWavefrontsBoundsConcurrency)
{
    sim::Engine engine;
    StubMemory memory(engine);
    memory.latency = 100;
    ComputeUnit cu(engine, memory, 0, CuConfig{4, 1});
    cu.startWorkgroup(makeWorkgroup(10, 2), nullptr);
    engine.run();
    EXPECT_EQ(memory.maxInflight, 4u);
    EXPECT_EQ(cu.opsCompleted, 20u); // everyone still finishes
}

TEST(ComputeUnit, ComputeDelaySeparatesOps)
{
    sim::Engine engine;
    StubMemory memory(engine);
    memory.latency = 10;
    ComputeUnit cu(engine, memory, 0, CuConfig{});
    wl::Workgroup wg;
    wl::WavefrontTrace tr;
    tr.ops.push_back(wl::MemOp{0, 50, false});
    tr.ops.push_back(wl::MemOp{64, 1, false});
    wg.wavefronts.push_back(tr);
    Tick end = 0;
    cu.startWorkgroup(std::move(wg), [&] { end = engine.now(); });
    engine.run();
    // issue(1) + mem(10) + delay(50) + mem(10) + delay(1) + retire.
    EXPECT_GE(end, 72u);
}

TEST(ComputeUnit, PauseStopsNewIssueButInflightContinues)
{
    sim::Engine engine;
    StubMemory memory(engine);
    memory.latency = 50;
    ComputeUnit cu(engine, memory, 0, CuConfig{16, 1});
    cu.startWorkgroup(makeWorkgroup(2, 10), nullptr);
    engine.runUntil(10); // both wavefronts have one op in flight
    EXPECT_EQ(memory.inflight, 2u);

    cu.pauseIssue();
    engine.runUntil(1000);
    // The in-flight ops completed but nothing new was issued.
    EXPECT_EQ(memory.inflight, 0u);
    EXPECT_EQ(cu.opsCompleted, 2u);
    EXPECT_TRUE(cu.paused());

    cu.resume();
    engine.run();
    EXPECT_EQ(cu.opsCompleted, 20u);
}

TEST(ComputeUnit, FlushDiscardsInflightAndReplays)
{
    sim::Engine engine;
    StubMemory memory(engine);
    memory.latency = 50;
    ComputeUnit cu(engine, memory, 0, CuConfig{16, 1});
    cu.startWorkgroup(makeWorkgroup(4, 3), nullptr);
    engine.runUntil(10);
    EXPECT_EQ(memory.inflight, 4u);

    cu.flushPipeline();
    EXPECT_EQ(cu.inflightOps(), 0u);
    EXPECT_EQ(cu.opsDiscarded, 4u);

    cu.resume();
    engine.run();
    // All 12 ops completed; the 4 discarded ones were re-issued, so
    // the memory saw 16 accesses in total.
    EXPECT_EQ(cu.opsCompleted, 12u);
    EXPECT_EQ(memory.accesses.size(), 16u);
    EXPECT_EQ(cu.workgroupsRetired, 1u);
}

TEST(ComputeUnit, StaleRepliesAfterFlushAreIgnored)
{
    sim::Engine engine;
    StubMemory memory(engine);
    memory.latency = 50;
    ComputeUnit cu(engine, memory, 0, CuConfig{16, 1});
    cu.startWorkgroup(makeWorkgroup(1, 2), nullptr);
    engine.runUntil(10);
    cu.flushPipeline();
    // Let the stale reply land while still paused: nothing breaks and
    // no progress is recorded for it.
    engine.runUntil(200);
    EXPECT_EQ(cu.opsCompleted, 0u);
    cu.resume();
    engine.run();
    EXPECT_EQ(cu.opsCompleted, 2u);
}

TEST(ComputeUnit, BackToBackWorkgroups)
{
    sim::Engine engine;
    StubMemory memory(engine);
    ComputeUnit cu(engine, memory, 0, CuConfig{});
    int retired = 0;
    cu.startWorkgroup(makeWorkgroup(2, 2), [&] {
        ++retired;
        cu.startWorkgroup(makeWorkgroup(1, 1), [&] { ++retired; });
    });
    engine.run();
    EXPECT_EQ(retired, 2);
    EXPECT_EQ(cu.workgroupsRetired, 2u);
}

TEST(ComputeUnit, StaleReplyDuringReissueIsIgnored)
{
    // The discarded op's reply lands after resume(), while the same
    // wavefront's re-issued op is in flight: it must not complete the
    // re-issued op early, and that op completes exactly once.
    sim::Engine engine;
    StubMemory memory(engine);
    memory.latency = 50;
    ComputeUnit cu(engine, memory, 0, CuConfig{16, 1});
    cu.startWorkgroup(makeWorkgroup(1, 2), nullptr);
    engine.runUntil(10); // op 0 issued at 1, its reply lands at 51
    cu.flushPipeline();
    cu.resume();         // re-issued at 11, its reply lands at 61
    engine.runUntil(55);
    EXPECT_EQ(memory.inflight, 1u);
    EXPECT_EQ(cu.inflightOps(), 1u);
    EXPECT_EQ(cu.opsCompleted, 0u) << "stale reply completed the op";
    EXPECT_EQ(memory.accesses.size(), 2u);

    engine.run();
    EXPECT_EQ(cu.opsCompleted, 2u);
    EXPECT_EQ(cu.opsDiscarded, 1u);
    EXPECT_EQ(cu.opsIssued, cu.opsCompleted + cu.opsDiscarded);
    EXPECT_EQ(memory.accesses.size(), 3u);
    EXPECT_EQ(cu.workgroupsRetired, 1u);
}

TEST(ComputeUnit, StaleReplyAfterSmallerNextWorkgroupIsIgnored)
{
    // Four wavefronts' ops are discarded with their replies far out;
    // the replays finish, and a one-wavefront workgroup is running
    // when the stale replies land, three of them naming a wavefront
    // index it does not have.
    sim::Engine engine;
    StubMemory memory(engine);
    memory.latency = 1000;
    ComputeUnit cu(engine, memory, 0, CuConfig{16, 1});
    int retired = 0;
    cu.startWorkgroup(makeWorkgroup(4, 1), [&] {
        ++retired;
        memory.latency = 2000; // in flight across the stale replies
        cu.startWorkgroup(makeWorkgroup(1, 1), [&] { ++retired; });
    });
    engine.runUntil(10);
    cu.flushPipeline();
    EXPECT_EQ(cu.opsDiscarded, 4u);
    memory.latency = 10;
    cu.resume();
    engine.runUntil(500);
    EXPECT_EQ(retired, 1);
    EXPECT_EQ(cu.inflightOps(), 1u);

    engine.runUntil(1500); // the four stale replies have landed
    EXPECT_EQ(cu.opsCompleted, 4u);
    EXPECT_EQ(cu.inflightOps(), 1u);

    engine.run();
    EXPECT_EQ(retired, 2);
    EXPECT_EQ(cu.opsCompleted, 5u);
    EXPECT_EQ(cu.opsIssued, cu.opsCompleted + cu.opsDiscarded);
    EXPECT_EQ(cu.workgroupsRetired, 2u);
}
