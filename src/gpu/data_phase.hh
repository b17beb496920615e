/**
 * @file
 * The GPU's registry of accesses in their data phase: translated
 * accesses inside the GPU's memory hierarchy, both its own CUs' local
 * accesses and the DCA services its RDMA engine runs for other
 * devices. ACUD (paper SS III-D) waits only for the ones that target
 * the migrating pages.
 *
 * The registry never looks a page up per access. Each access holds a
 * slot token from enter() to leave(); only while a drain is pending
 * does either call test the page against the (sorted) drain set, and
 * then it adjusts one counter, busy(). beginDrain() sets busy() by a
 * single scan of the live slots, so busy() always equals the number of
 * in-flight accesses to drain-set pages, and the drain is satisfied
 * exactly when it is zero.
 */

#ifndef GRIFFIN_GPU_DATA_PHASE_HH
#define GRIFFIN_GPU_DATA_PHASE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hh"
#include "src/sim/slot_pool.hh"
#include "src/sim/types.hh"

namespace griffin::gpu {

/**
 * In-flight data-phase accesses of one GPU and its (at most one)
 * pending ACUD drain.
 */
class DataPhase
{
  public:
    /** An access's handle from enter() to leave(). */
    using Token = sim::SlotId;

    /** An access to @p page enters the data phase. */
    Token
    enter(PageId page)
    {
        if (_drainSet && inDrainSet(page))
            ++_busy;
        return _live.acquire(page);
    }

    /**
     * The access holding @p token leaves the data phase. If it was the
     * last one a waiting drain needed gone, the drain ends and its
     * callback runs before this returns.
     */
    void
    leave(Token token)
    {
        const PageId page = _live[token];
        _live.release(token);
        if (!_drainSet || !inDrainSet(page))
            return;
        assert(_busy > 0);
        if (--_busy == 0 && _waiter) {
            auto done = std::move(_waiter);
            _waiter = nullptr;
            endDrain();
            done();
        }
    }

    /** Start tracking a drain of @p pages (sorted). */
    void
    beginDrain(std::shared_ptr<const std::vector<PageId>> pages)
    {
        assert(!_drainSet && "one drain at a time per GPU");
        assert(std::is_sorted(pages->begin(), pages->end()));
        _drainSet = std::move(pages);
        _live.forEachLive([this](PageId page) {
            if (inDrainSet(page))
                ++_busy;
        });
    }

    /**
     * True when no in-flight access targets a drain-set page (always
     * true without a drain).
     */
    bool satisfied() const { return _busy == 0; }

    /**
     * Run @p done at the leave() that satisfies the pending drain,
     * which is not satisfied now.
     */
    void
    await(sim::EventFn done)
    {
        assert(_drainSet && !satisfied() && !_waiter);
        _waiter = std::move(done);
    }

    /** Stop tracking the drain. */
    void
    endDrain()
    {
        _drainSet.reset();
        _busy = 0;
    }

    /** True while a drain waits in await() (watchdog probe). */
    bool awaiting() const { return bool(_waiter); }

    /** In-flight accesses to drain-set pages (0 without a drain). */
    std::uint64_t busy() const { return _busy; }

    /** Accesses in the data phase. */
    std::size_t live() const { return _live.live(); }

  private:
    sim::SlotPool<PageId> _live;
    std::shared_ptr<const std::vector<PageId>> _drainSet;
    std::uint64_t _busy = 0;
    sim::EventFn _waiter;

    bool
    inDrainSet(PageId page) const
    {
        return std::binary_search(_drainSet->begin(), _drainSet->end(),
                                  page);
    }
};

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_DATA_PHASE_HH
