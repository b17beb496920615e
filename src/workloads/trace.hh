/**
 * @file
 * The trace format that connects workloads to the GPU model.
 *
 * A workload is a sequence of kernel launches; each kernel is a grid
 * of workgroups; each workgroup is a set of wavefronts; each wavefront
 * is a list of post-coalescing memory transactions (64-byte lines)
 * separated by compute delays. This is exactly the abstraction level
 * at which page migration behaviour is determined (paper SS III-C
 * counts post-coalescing transactions).
 */

#ifndef GRIFFIN_WORKLOADS_TRACE_HH
#define GRIFFIN_WORKLOADS_TRACE_HH

#include <cstdint>
#include <vector>

#include "src/sim/types.hh"

namespace griffin::wl {

/** One post-coalescing memory transaction plus trailing compute. */
struct MemOp
{
    Addr vaddr = 0;
    /** Cycles of non-memory work before the next op can issue. */
    std::uint32_t computeDelay = 0;
    bool isWrite = false;
};

/** The memory trace of one wavefront. */
struct WavefrontTrace
{
    std::vector<MemOp> ops;
};

/** A workgroup: wavefronts that must run on the same CU. */
struct Workgroup
{
    std::uint32_t id = 0;
    std::vector<WavefrontTrace> wavefronts;

    /** Total transactions across all wavefronts. */
    std::size_t
    totalOps() const
    {
        std::size_t n = 0;
        for (const auto &wf : wavefronts)
            n += wf.ops.size();
        return n;
    }
};

/** One kernel launch: the grid of workgroups to dispatch. */
struct KernelLaunch
{
    std::vector<Workgroup> workgroups;

    std::size_t
    totalOps() const
    {
        std::size_t n = 0;
        for (const auto &wg : workgroups)
            n += wg.totalOps();
        return n;
    }
};

/**
 * Helper that turns a workgroup's logical access stream into
 * wavefront traces.
 *
 * The stream is dealt round-robin across the workgroup's wavefronts
 * (op i goes to wavefront i mod K), so concurrently-running
 * wavefronts co-traverse the same pages — matching real GPUs, where
 * a workgroup's wavefronts process adjacent rows of the same tile at
 * the same time. This is what concentrates per-page access rates
 * enough for the DPC counters to observe them.
 */
class TraceBuilder
{
  public:
    /**
     * @param ops_per_wavefront target transactions per wavefront
     *        (controls how many wavefronts a workgroup gets).
     * @param compute_delay default per-op trailing compute cycles.
     * @param max_wavefronts cap on wavefronts per workgroup; chosen
     *        to match the CU's concurrent-wavefront limit so the
     *        whole workgroup runs as one co-traversing front.
     */
    explicit TraceBuilder(std::size_t ops_per_wavefront = 64,
                          std::uint32_t compute_delay = 8,
                          std::size_t max_wavefronts = 8);

    /** Set the compute delay applied to subsequently added ops. */
    void setComputeDelay(std::uint32_t delay) { _delay = delay; }

    /** Append one transaction. */
    void add(Addr vaddr, bool is_write);

    /** Close the current workgroup and return it (interleaved). */
    Workgroup finishWorkgroup(std::uint32_t id);

  private:
    std::size_t _opsPerWavefront;
    std::uint32_t _delay;
    std::size_t _maxWavefronts;
    std::vector<MemOp> _ops;
};

} // namespace griffin::wl

#endif // GRIFFIN_WORKLOADS_TRACE_HH
