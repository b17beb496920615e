/**
 * @file
 * The GPU driver (runs on the CPU): services GPU page faults by
 * migrating CPU-resident pages to the faulting GPU.
 *
 * The fault path implements both scheduling disciplines the paper
 * contrasts (SS II-C challenge 3, SS III-B):
 *
 *  - faultBatchSize == 1: the baseline FCFS discipline — every fault
 *    immediately pays a CPU TLB shootdown + flush and a serialized
 *    page transfer;
 *  - faultBatchSize == N_PTW (8): Griffin's CPMS batching — the driver
 *    waits for multiple page walks to fault, pays ONE CPU flush for
 *    the whole batch, and pipelines the transfers.
 */

#ifndef GRIFFIN_DRIVER_DRIVER_HH
#define GRIFFIN_DRIVER_DRIVER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "src/gpu/pmc.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/page_table.hh"
#include "src/sim/engine.hh"
#include "src/sim/types.hh"
#include "src/xlat/fault_handler.hh"
#include "src/xlat/iommu.hh"

namespace griffin::driver {

/** Fault-path configuration. */
struct DriverConfig
{
    /** Faults per batch (1 = baseline FCFS; 8 = Griffin's N_PTW). */
    unsigned faultBatchSize = 1;
    /** Max cycles to hold an under-full batch open. */
    Tick faultBatchWindow = 600;
    /** CPU pipeline flush + TLB shootdown penalty (paper SS IV: 100). */
    Tick cpuFlushPenalty = 100;
    /**
     * Fixed driver software cost per fault batch: interrupt delivery,
     * fault readout, and runlist processing. Paid once per batch, so
     * CPMS batching amortizes it while the baseline pays it per page.
     */
    Tick faultServiceLatency = 600;
    /** Pin pages on the GPU after migration (baseline behaviour). */
    bool pinAfterMigration = false;
};

/**
 * The driver's fault-service engine.
 */
class Driver : public xlat::FaultHandler
{
  public:
    /**
     * @param engine  event engine.
     * @param pt      global page table.
     * @param iommu   for migration-completion notifications.
     * @param cpu_pmc the CPU-side page migration controller.
     * @param config  fault-path parameters.
     */
    Driver(sim::Engine &engine, mem::PageTable &pt, xlat::Iommu &iommu,
           gpu::Pmc &cpu_pmc, const DriverConfig &config);

    const DriverConfig &config() const { return _config; }

    /**
     * Attach a fault injector (nullptr detaches). Timeout recovery is
     * only armed while an injector is attached, after its
     * ChaosConfig::migrationTimeout, so fault-free runs pay nothing.
     */
    void setFaultInjector(sys::FaultInjector *injector)
    {
        _injector = injector;
    }

    /** xlat::FaultHandler */
    void onPageFault(DeviceId requester, PageId page,
                     FaultId fid = invalidFaultId) override;

    /** True while a batch is being serviced (for tests). */
    bool busy() const { return _processing; }

    /** Faults queued but not yet in a serviced batch (probes). */
    std::size_t pendingFaults() const { return _queue.size(); }

    /** @name Statistics @{ */
    std::uint64_t faultsReceived = 0;
    std::uint64_t batchesProcessed = 0;
    /** CPU-side TLB shootdowns + flushes (one per batch). */
    std::uint64_t cpuShootdowns = 0;
    std::uint64_t pagesMigratedIn = 0; ///< CPU -> GPU migrations
    std::uint64_t migrationTimeouts = 0; ///< aborted by the timeout
    std::uint64_t lateDmaCompletions = 0; ///< landed after an abort
    /** @} */

  private:
    struct Fault
    {
        DeviceId requester;
        PageId page;
        Tick raisedAt; ///< for the fault-latency histogram
        FaultId fid;   ///< span identity (obs/span.hh)
    };

    sim::Engine &_engine;
    mem::PageTable &_pageTable;
    xlat::Iommu &_iommu;
    gpu::Pmc &_cpuPmc;
    DriverConfig _config;
    sys::FaultInjector *_injector = nullptr;

    std::deque<Fault> _queue;
    bool _processing = false;
    bool _windowArmed = false;

    void maybeStartBatch();
    void startBatch();
};

} // namespace griffin::driver

#endif // GRIFFIN_DRIVER_DRIVER_HH
