/**
 * @file
 * Whole-system configuration. Defaults reproduce paper Table II:
 * 4 AMD MI6-class GPUs (4 SEs x 9 CUs each), PCIe-v4 fabric at
 * 32 GB/s per direction, an IOMMU with 8 page table walkers on the
 * CPU die, and 4 KB pages.
 */

#ifndef GRIFFIN_SYS_SYSTEM_CONFIG_HH
#define GRIFFIN_SYS_SYSTEM_CONFIG_HH

#include <cstdint>

#include "src/core/griffin_config.hh"
#include "src/driver/driver.hh"
#include "src/gpu/gpu.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/cache.hh"
#include "src/mem/dram.hh"
#include "src/obs/pagestats.hh"
#include "src/sim/types.hh"
#include "src/sys/chaos.hh"
#include "src/xlat/iommu.hh"

namespace griffin::sys {

/** Which placement policy the system runs. */
enum class PolicyKind
{
    FirstTouch, ///< the baseline NUMA multi-GPU system
    Griffin,    ///< the paper's proposal
};

/**
 * The policy's name in labels, reports and logs: "first-touch" or
 * "griffin".
 */
const char *policyName(PolicyKind kind);

/**
 * Everything needed to build a MultiGpuSystem.
 */
struct SystemConfig
{
    unsigned numGpus = 4;
    gpu::GpuConfig gpu{};

    /** PCIe-v4: 32 GB/s per direction at a 1 GHz model clock. */
    ic::LinkConfig link{32.0, 250};

    xlat::IommuConfig iommu{};

    /** CPU-side memory complex (DDR + a slice of CPU LLC). */
    mem::DramConfig cpuDram{4, 120, 16.0, 256};
    mem::CacheConfig cpuL2{8ull * 1024 * 1024, 16, 20};

    /** Fault-path timing shared by both policies. */
    Tick cpuFlushPenalty = 100;

    /**
     * DMA streams each PMC may have in flight at once; 0 = unlimited
     * (timing-identical to a queueless PMC). Bounding it surfaces
     * transfer-queue pressure in the span breakdown and the
     * pmcN.queueDepth probe.
     */
    unsigned pmcMaxConcurrent = 0;

    /** Workgroup dispatch serialization (GPU 1 goes first). */
    Tick dispatchLatency = 4;

    PolicyKind policy = PolicyKind::FirstTouch;
    core::GriffinConfig griffin{};

    /** Watchdog: abort runs that exceed this many cycles. */
    Tick maxTicks = Tick(4) * 1000 * 1000 * 1000;

    /**
     * Fault injection (off by default). When any rate is nonzero the
     * system builds a FaultInjector, arms the recovery timeouts and
     * runs the periodic invariant auditor.
     */
    ChaosConfig chaos{};

    /**
     * Per-page lifecycle telemetry (off by default). When enabled the
     * system builds an obs::PageStats recorder and the run report
     * gains a "page_stats" section; when off, nothing is recorded and
     * report bytes are unchanged.
     */
    obs::PageStatsConfig pageStats{};

    /**
     * Interval time-series width in cycles; 0 = off. When nonzero the
     * system builds an obs::TimeSeries recorder and the run report
     * gains a "timeseries" section.
     */
    Tick timeseriesTick = 0;

    /**
     * Host-side self-profiling (off by default). When enabled the
     * system builds an obs::HostProfiler, every dispatched event's
     * host wall time is attributed per component/event type, and the
     * run report gains a "host_profile" section. Simulated results
     * are unaffected either way.
     */
    bool hostProf = false;

    /**
     * Run the engine on the naive reference scheduler (ref_queue.hh)
     * instead of the tiered event queue. Test-only: differential
     * oracles flip this and demand byte-identical reports, so it is
     * deliberately excluded from configJson().
     */
    bool useReferenceQueue = false;

    /** Total devices including the CPU. */
    unsigned numDevices() const { return numGpus + 1; }

    /** The paper's baseline configuration (Table II, first-touch). */
    static SystemConfig baseline();

    /** The paper's Griffin configuration (Tables I + II). */
    static SystemConfig griffinDefault();

    /**
     * The Figure 13 variant: an NVLink-class fabric with 8x the
     * bandwidth and lower latency.
     */
    SystemConfig &withHighBandwidthFabric();
};

} // namespace griffin::sys

#endif // GRIFFIN_SYS_SYSTEM_CONFIG_HH
