/**
 * @file
 * The per-GPU RDMA engine that serves Direct Cache Access requests
 * from other devices (paper SS II-B, Figure 4): a remote device sends a
 * cache-line read/write, the RDMA engine resolves it against the local
 * L2 (falling through to local DRAM on a miss) and replies over the
 * fabric.
 */

#ifndef GRIFFIN_GPU_RDMA_HH
#define GRIFFIN_GPU_RDMA_HH

#include <cstdint>

#include "src/gpu/data_phase.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/cache.hh"
#include "src/mem/dram.hh"
#include "src/sim/engine.hh"
#include "src/sim/slot_pool.hh"
#include "src/sim/types.hh"

namespace griffin::gpu {

/**
 * Serves incoming DCA traffic against a local L2 + DRAM pair.
 */
class Rdma
{
  public:
    /**
     * @param engine   event engine.
     * @param network  the inter-device fabric (used for replies).
     * @param self     the device this engine belongs to.
     * @param l2       the device's shared L2 cache.
     * @param dram     the device's local memory.
     * @param line_bytes transfer granularity.
     * @param data_phase the device's data-phase registry, if it has
     *        one (a GPU: ACUD drains wait for its DCA services); null
     *        for the CPU.
     */
    Rdma(sim::Engine &engine, ic::Network &network, DeviceId self,
         mem::Cache &l2, mem::Dram &dram, unsigned line_bytes = 64,
         DataPhase *data_phase = nullptr);

    /**
     * Serve one remote access to @p addr, in page @p page, that has
     * already arrived here. @p reply_to is the requesting device;
     * @p done runs there after the reply message lands. With a
     * data-phase registry, the access occupies @p page's data phase
     * from here until its reply leaves.
     */
    void serve(Addr addr, PageId page, bool is_write, DeviceId reply_to,
               sim::EventFn done);

    /** @name Statistics @{ */
    std::uint64_t readsServed = 0;
    std::uint64_t writesServed = 0;
    std::uint64_t l2HitsServed = 0;
    /** @} */

  private:
    sim::Engine &_engine;
    ic::Network &_network;
    DeviceId _self;
    mem::Cache &_l2;
    mem::Dram &_dram;
    unsigned _lineBytes;
    DataPhase *_dataPhase;

    /**
     * An access in service: where its reply goes, what runs then, and
     * its data-phase token (unused without a registry).
     */
    struct Service
    {
        DeviceId replyTo;
        std::uint64_t replyBytes;
        sim::EventFn done;
        DataPhase::Token dataPhase;
    };
    sim::SlotPool<Service> _inService;
};

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_RDMA_HH
