/**
 * @file
 * The Page Migration Controller (paper SS II-B, Figure 3): the DMA
 * engine that moves whole pages between device memories over the
 * inter-device fabric and reports completion to the driver.
 */

#ifndef GRIFFIN_GPU_PMC_HH
#define GRIFFIN_GPU_PMC_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/interconnect/switch.hh"
#include "src/mem/dram.hh"
#include "src/sim/engine.hh"
#include "src/sim/types.hh"

namespace griffin::sys {
class FaultInjector;
} // namespace griffin::sys

namespace griffin::gpu {

/**
 * One device's PMC. The transfer reads the page from the source DRAM,
 * streams it across the fabric, and writes it into the destination
 * DRAM; @p done fires when the last byte is committed.
 */
class Pmc
{
  public:
    /**
     * @param engine event engine.
     * @param network inter-device fabric.
     * @param self   the device that owns this PMC (the source side).
     * @param drams  per-device DRAM models, indexed by DeviceId.
     * @param page_bytes page size being migrated.
     * @param max_concurrent DMA streams allowed in flight at once;
     *        0 = unlimited (the default, and timing-identical to a
     *        PMC without a queue). When bounded, excess transfers
     *        wait in an internal FIFO — the wait is the span model's
     *        transfer_queue stage.
     */
    Pmc(sim::Engine &engine, ic::Network &network, DeviceId self,
        std::vector<mem::Dram *> drams, std::uint64_t page_bytes,
        unsigned max_concurrent = 0);

    /**
     * Migrate @p page (by virtual page number; the model is tag-only)
     * from this device to @p dst.
     *
     * @param fid span identity when this transfer services a page
     *            fault (stamps the transfer_queue/transfer stages).
     */
    void transferPage(PageId page, DeviceId dst, sim::EventFn done,
                      FaultId fid = invalidFaultId);

    /** In-flight + queued transfers (sampler probe). */
    unsigned
    queueDepth() const
    {
        return _inflight + unsigned(_pending.size());
    }

    /**
     * Attach a fault injector (nullptr detaches). When set, each DMA
     * attempt may fail mid-stream; failures are retried with
     * exponential backoff up to the configured attempt budget, then
     * the transfer is abandoned (its completion never fires — the
     * arming side's migration timeout is the recovery).
     */
    void setFaultInjector(sys::FaultInjector *injector)
    {
        _injector = injector;
    }

    /** @name Statistics @{ */
    std::uint64_t pagesTransferred = 0;
    std::uint64_t bytesTransferred = 0;
    std::uint64_t transfersDeferred = 0; ///< waited on a DMA slot
    /** @} */

  private:
    /** A transfer waiting for a DMA slot. */
    struct Pending
    {
        PageId page;
        DeviceId dst;
        sim::EventFn done;
        FaultId fid;
    };

    sim::Engine &_engine;
    ic::Network &_network;
    DeviceId _self;
    std::vector<mem::Dram *> _drams;
    std::uint64_t _pageBytes;
    unsigned _maxConcurrent;
    unsigned _inflight = 0;
    std::deque<Pending> _pending;
    sys::FaultInjector *_injector = nullptr;

    /**
     * One in-flight DMA stream. The attempt chain (read, stream,
     * commit, plus any retry loops) shares this single heap box;
     * every hop's lambda captures {this, pointer}, which fits the
     * event's inline storage.
     */
    struct Xfer
    {
        PageId page;
        Addr base;
        DeviceId dst;
        FaultId fid;
        unsigned attempt;
        Tick begin;
        sim::EventFn done;
    };
    using XferPtr = std::unique_ptr<Xfer>;

    void startTransfer(PageId page, DeviceId dst, sim::EventFn done,
                       FaultId fid);
    void runAttempt(XferPtr xf);
    void releaseSlot();
};

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_PMC_HH
