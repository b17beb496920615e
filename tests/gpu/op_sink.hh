/**
 * @file
 * Test-side completion sink for CU accesses.
 *
 * A CU access completes through a gpu::OpDone, which names the
 * ComputeUnit and wavefront whose op it finishes, so a test cannot
 * hand the memory system a lambda. OpSink issues each access the way a
 * CU does: as a one-op workgroup on a ComputeUnit of its own, wired to
 * the memory interface under test and numbered as the CU the access
 * comes from. The memory system calls that op's OpDone, and the sink
 * reports the tick it ran when the wavefront retires, one cycle later
 * (an op with computeDelay 0 waits the minimum one cycle).
 */

#ifndef GRIFFIN_TESTS_GPU_OP_SINK_HH
#define GRIFFIN_TESTS_GPU_OP_SINK_HH

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/gpu/compute_unit.hh"
#include "src/sim/engine.hh"

namespace griffin::test {

class OpSink
{
  public:
    OpSink(sim::Engine &engine, gpu::CuMemoryInterface &memory)
        : _engine(engine), _memory(memory)
    {
    }

    /**
     * Issue one access from CU @p cu_id at the current tick (once the
     * engine runs). @p on_done, if set, gets the tick the access's
     * OpDone ran.
     */
    void
    issue(unsigned cu_id, Addr vaddr, bool is_write,
          std::function<void(Tick)> on_done = {})
    {
        wl::Workgroup wg;
        wg.wavefronts.emplace_back();
        wg.wavefronts.back().ops.push_back(wl::MemOp{vaddr, 0, is_write});
        _cus.push_back(std::make_unique<gpu::ComputeUnit>(
            _engine, _memory, cu_id,
            gpu::CuConfig{/*maxWavefronts=*/1, /*issueLatency=*/0}));
        _cus.back()->startWorkgroup(
            std::move(wg), [this, on_done = std::move(on_done)] {
                if (on_done)
                    on_done(_engine.now() - 1);
            });
    }

  private:
    sim::Engine &_engine;
    gpu::CuMemoryInterface &_memory;
    std::vector<std::unique_ptr<gpu::ComputeUnit>> _cus;
};

} // namespace griffin::test

#endif // GRIFFIN_TESTS_GPU_OP_SINK_HH
