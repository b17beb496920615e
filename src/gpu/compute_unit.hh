/**
 * @file
 * A Compute Unit: executes the wavefront memory traces of one
 * workgroup at a time with a bounded number of concurrent wavefronts.
 *
 * The CU provides the two issue-side primitives that the migration
 * quiesce mechanisms are built from:
 *
 *  - pauseIssue()/resume(): stop feeding new transactions into the
 *    pipeline while keeping all in-flight work alive. Griffin's ACUD
 *    (paper SS III-D) pauses the CUs and then waits — at the GPU level,
 *    where the translated in-flight buffer lives — only for the
 *    transactions that target the migrating pages.
 *  - flushPipeline(): the conventional scheme — discard every
 *    in-flight transaction; the lost work replays after resume().
 */

#ifndef GRIFFIN_GPU_COMPUTE_UNIT_HH
#define GRIFFIN_GPU_COMPUTE_UNIT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <type_traits>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/types.hh"
#include "src/workloads/trace.hh"

namespace griffin::gpu {

/** CU execution parameters. */
struct CuConfig
{
    /** Wavefronts that may be in flight concurrently. */
    unsigned maxWavefronts = 16;
    /** Cycles between a workgroup arriving and its first issue. */
    Tick issueLatency = 1;
};

class ComputeUnit;

/**
 * One op's completion, carried by value through the memory system:
 * calling it runs cu->onOpDone(wf, seq). It replaces a type-erased
 * callback because that is all a CU op's completion ever did, and at
 * 24 bytes, trivially copyable, it fits an in-flight access's slot
 * with no indirect call to move or run it.
 */
struct OpDone
{
    ComputeUnit *cu;
    std::uint32_t wf;
    std::uint64_t seq;

    void operator()() const;
};
static_assert(sizeof(OpDone) == 24 &&
              std::is_trivially_copyable_v<OpDone>);

/**
 * The CU's window into the GPU memory system; implemented by Gpu.
 */
class CuMemoryInterface
{
  public:
    virtual ~CuMemoryInterface() = default;

    /**
     * Issue one post-coalescing transaction. Call @p done when the
     * data (or write ack) returns to the CU.
     */
    virtual void cuAccess(unsigned cu_id, Addr vaddr, bool is_write,
                          OpDone done) = 0;
};

/**
 * One Compute Unit.
 */
class ComputeUnit
{
  public:
    ComputeUnit(sim::Engine &engine, CuMemoryInterface &memory,
                unsigned cu_id, const CuConfig &config);

    unsigned cuId() const { return _cuId; }

    /** True while a workgroup is resident. */
    bool busy() const { return _wgActive; }

    /** True while issue is paused (drain or flush in progress). */
    bool paused() const { return _paused; }

    /** Outstanding memory transactions right now. */
    std::size_t inflightOps() const;

    /**
     * Begin executing @p wg. Must be idle. @p on_done fires when every
     * wavefront of the workgroup has retired.
     */
    void startWorkgroup(wl::Workgroup wg, sim::EventFn on_done);

    /**
     * Stop issuing new transactions; in-flight ones keep running.
     * Part of both the ACUD drain and the flush sequence.
     */
    void pauseIssue();

    /**
     * Conventional flush: discard all in-flight transactions (their
     * issue slots replay after resume()) and pause issue.
     */
    void flushPipeline();

    /** Restart issue after a pause or flush. */
    void resume();

    /** @name Statistics @{ */
    std::uint64_t opsIssued = 0;
    std::uint64_t opsCompleted = 0;
    std::uint64_t opsDiscarded = 0;     ///< killed by flushPipeline()
    std::uint64_t workgroupsRetired = 0;
    /** @} */

  private:
    friend struct OpDone;

    struct WfState
    {
        std::size_t pc = 0;
        bool inFlight = false;
        bool finished = false;
        /** Issue was deferred because the CU was paused. */
        bool pendingIssue = false;
        /**
         * The in-flight op's computeDelay, kept from issue so its
         * completion need not read the trace again.
         */
        std::uint32_t computeDelay = 0;
        /**
         * Sequence number of the op in flight. A wavefront has at most
         * one, so a reply is current only if it names this seq while
         * inFlight holds; anything else was discarded by
         * flushPipeline() and is stale.
         */
        std::uint64_t seq = 0;
    };
    static_assert(sizeof(WfState) <= 24, "computeDelay fits the padding");

    sim::Engine &_engine;
    CuMemoryInterface &_memory;
    unsigned _cuId;
    CuConfig _config;

    bool _wgActive = false;
    bool _paused = false;
    wl::Workgroup _wg;
    sim::EventFn _wgDone;
    std::vector<WfState> _wfStates;
    std::deque<std::size_t> _waitingWavefronts; ///< beyond maxWavefronts
    unsigned _runningWavefronts = 0;
    std::size_t _finishedWavefronts = 0;

    /** Issue counter; unique per CU, across workgroups too. */
    std::uint64_t _nextSeq = 0;

    void tryIssue(std::size_t wf_index);
    void issueOp(std::size_t wf_index);
    void onOpDone(std::size_t wf_index, std::uint64_t seq);
    void finishWavefront(std::size_t wf_index);
};

inline void
OpDone::operator()() const
{
    cu->onOpDone(wf, seq);
}

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_COMPUTE_UNIT_HH
