/**
 * @file
 * Test-side DCA router for GPUs built without a system.
 *
 * It owns the access table the GPUs under test record their accesses
 * in. A remote access is logged as its (owner, address) pair and
 * completes a fixed latency later: the router releases its record and
 * runs its OpDone, as the system does when the DCA reply lands.
 */

#ifndef GRIFFIN_TESTS_GPU_TEST_ROUTER_HH
#define GRIFFIN_TESTS_GPU_TEST_ROUTER_HH

#include <utility>
#include <vector>

#include "src/gpu/remote.hh"
#include "src/sim/engine.hh"

namespace griffin::test {

class TestRouter : public gpu::RemoteRouter
{
  public:
    explicit TestRouter(sim::Engine &engine, Tick latency = 10)
        : latency(latency), _engine(engine)
    {
    }

    void
    remoteAccess(gpu::AccessId id) override
    {
        const gpu::Access &a = accesses[id];
        remote.emplace_back(a.owner, a.vaddr);
        _engine.schedule(latency, [this, id] {
            if (!releaseRecords)
                return;
            accesses.take(id).done();
        });
    }

    gpu::AccessTable accesses;
    /** (owner, address) of every remote access, in issue order. */
    std::vector<std::pair<DeviceId, Addr>> remote;
    Tick latency;
    /** False drops every remote record instead of completing it. */
    bool releaseRecords = true;

  private:
    sim::Engine &_engine;
};

} // namespace griffin::test

#endif // GRIFFIN_TESTS_GPU_TEST_ROUTER_HH
