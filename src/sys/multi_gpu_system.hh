/**
 * @file
 * The top-level system: 1 CPU + N GPUs on a shared fabric, a global
 * page table, the IOMMU, the driver, the dispatcher, and the active
 * placement policy. This is the primary entry point of the library:
 * build a SystemConfig, build a Workload, call run().
 */

#ifndef GRIFFIN_SYS_MULTI_GPU_SYSTEM_HH
#define GRIFFIN_SYS_MULTI_GPU_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/first_touch_policy.hh"
#include "src/core/griffin_policy.hh"
#include "src/driver/driver.hh"
#include "src/gpu/dispatcher.hh"
#include "src/gpu/gpu.hh"
#include "src/gpu/pmc.hh"
#include "src/gpu/rdma.hh"
#include "src/gpu/remote.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/cache.hh"
#include "src/mem/dram.hh"
#include "src/mem/page_table.hh"
#include "src/obs/hostprof.hh"
#include "src/obs/pagestats.hh"
#include "src/obs/sampler.hh"
#include "src/obs/span.hh"
#include "src/obs/telemetry.hh"
#include "src/obs/timeseries.hh"
#include "src/sim/engine.hh"
#include "src/sim/stats.hh"
#include "src/sim/watchdog.hh"
#include "src/sys/chaos.hh"
#include "src/sys/system_config.hh"
#include "src/workloads/workload.hh"
#include "src/xlat/iommu.hh"

namespace griffin::sys {

/** The outcome of one workload run. */
struct RunResult
{
    /** The workload seed the run used; the report's config.seed. */
    std::uint64_t seed = 0;
    /** Total execution time in cycles. */
    Tick cycles = 0;
    /** Final page residency per device (index 0 = CPU). */
    std::vector<std::uint64_t> pagesPerDevice;
    /** CPU-side TLB shootdowns + flushes (fault batches). */
    std::uint64_t cpuShootdowns = 0;
    /** GPU-side shootdown events (inter-GPU migrations). */
    std::uint64_t gpuShootdowns = 0;
    std::uint64_t localAccesses = 0;
    std::uint64_t remoteAccesses = 0;
    std::uint64_t pagesMigratedFromCpu = 0;
    std::uint64_t pagesMigratedInterGpu = 0;
    /** Full stat dump (per-component counters, prefixed names). */
    sim::StatSet stats;
    /** Latency distributions (fault, migration, remote access). */
    obs::LatencyHistograms latency;
    /** Critical-path decomposition of every serviced fault. */
    obs::CriticalPath faultBreakdown;
    /** Per-page lifecycle digest (enabled == false when off). */
    obs::PageStatsSummary pageStats;
    /** Interval time-series digest (tick == 0 when off). */
    obs::TimeSeries::Summary timeseries;
    /** Host wall-time attribution (enabled == false when off). */
    obs::HostProfile hostProfile;
    /** Faults whose span never closed (should be 0 after a run). */
    std::uint64_t faultSpansOpen = 0;
    /** @name Chaos accounting (zero when injection is off) @{ */
    std::uint64_t chaosInjected = 0;
    std::uint64_t chaosRetries = 0;
    std::uint64_t chaosFallbacks = 0;
    std::uint64_t chaosRecoveryCycles = 0;
    /** Invariant-auditor violations (should always be 0). */
    std::uint64_t auditViolations = 0;
    /** @} */

    /**
     * @name Op accounting for the op-completion oracle. Kept out of
     * stats and the report, so no output byte depends on them. @{
     */
    /** Sum of KernelLaunch::totalOps() over every launched kernel. */
    std::uint64_t opsSubmitted = 0;
    /** One GPU's ops, summed over its CUs. */
    struct GpuOps
    {
        std::uint64_t issued = 0;
        std::uint64_t completed = 0;
        std::uint64_t discarded = 0;
    };
    /** Per GPU; index 0 is GPU 1. */
    std::vector<GpuOps> gpuOps;
    /** @} */

    double
    localFraction() const
    {
        const double total = double(localAccesses + remoteAccesses);
        return total > 0 ? double(localAccesses) / total : 0.0;
    }

    std::uint64_t
    totalShootdowns() const
    {
        return cpuShootdowns + gpuShootdowns;
    }

    /**
     * Imbalance of the final GPU page distribution: the largest GPU
     * share, in [1/numGpus .. 1].
     */
    double maxGpuShare() const;
};

/**
 * The assembled multi-GPU system.
 */
class MultiGpuSystem : public gpu::RemoteRouter
{
  public:
    explicit MultiGpuSystem(const SystemConfig &config);

    MultiGpuSystem(const MultiGpuSystem &) = delete;
    MultiGpuSystem &operator=(const MultiGpuSystem &) = delete;

    /**
     * Run @p workload to completion (all kernels, back to back) and
     * collect the results. May be called once per system instance:
     * a second call throws std::logic_error and leaves the system
     * untouched.
     */
    RunResult run(wl::Workload &workload);

    /** gpu::RemoteRouter */
    void remoteAccess(gpu::AccessId id) override;

    /** @name Component access (probes, benches, tests) @{ */
    sim::Engine &engine() { return _engine; }
    /** Every GPU access in flight, from CU issue to its OpDone. */
    gpu::AccessTable &accesses() { return _accesses; }
    mem::PageTable &pageTable() { return _pageTable; }
    xlat::Iommu &iommu() { return *_iommu; }
    driver::Driver &driver() { return *_driver; }
    ic::Network &network() { return *_network; }
    gpu::Gpu &gpu(unsigned idx) { return *_gpus[idx]; }
    unsigned numGpus() const { return unsigned(_gpus.size()); }
    gpu::Dispatcher &dispatcher() { return *_dispatcher; }
    core::MigrationPolicy &policy() { return *_policy; }
    /** Non-null only when the config selected Griffin. */
    core::GriffinPolicy *griffinPolicy() { return _griffinPolicy; }
    const SystemConfig &config() const { return _config; }
    gpu::Pmc &pmc(unsigned dev) { return *_pmcs[dev]; }
    /** The run's fault-span sink (installed for the run's duration). */
    const obs::FaultSpans &faultSpans() const { return _spans; }
    /** Non-null only when the config enabled page-lifecycle stats. */
    obs::PageStats *pageStats() { return _pageStats.get(); }
    /** Non-null only when the config enabled host profiling. */
    obs::HostProfiler *hostProfiler() { return _hostProf.get(); }
    /** The liveness watchdog (always present). */
    sim::Watchdog &watchdog() { return *_watchdog; }
    /** Invariant-auditor violations found so far. */
    std::uint64_t auditViolations() const { return _auditViolations; }
    /**
     * Cross-check TLB contents, pin/fallback state and residency
     * counts against the page table. @return violations found (each
     * is also logged at Error level).
     */
    std::uint64_t auditInvariants();
    /** @} */

    /** Install a per-access probe on every GPU (benches). */
    void setAccessProbe(gpu::Gpu::AccessProbe probe);

    /**
     * Register the standard probe set on @p sampler: per-device page
     * residency, per-link utilization (busy fraction since the last
     * sample), pending faults, per-GPU busy CUs, and active IOMMU
     * walks. Call before sampler.start(engine(), period).
     */
    void registerProbes(obs::Sampler &sampler);

  private:
    SystemConfig _config;
    sim::Engine _engine;
    gpu::AccessTable _accesses;
    mem::PageTable _pageTable;
    std::unique_ptr<ic::Network> _network;
    std::unique_ptr<xlat::Iommu> _iommu;
    std::vector<std::unique_ptr<gpu::Gpu>> _gpus;
    std::vector<std::unique_ptr<gpu::Pmc>> _pmcs; ///< per device
    mem::Cache _cpuL2;
    mem::Dram _cpuDram;
    gpu::Rdma _cpuRdma;
    std::unique_ptr<driver::Driver> _driver;
    std::unique_ptr<gpu::Dispatcher> _dispatcher;
    std::unique_ptr<core::MigrationPolicy> _policy;
    core::GriffinPolicy *_griffinPolicy = nullptr;
    /** Built only when SystemConfig::chaos enables injection. */
    std::unique_ptr<FaultInjector> _injector;
    /** Lost-wakeup detector; probes registered at construction. */
    std::unique_ptr<sim::Watchdog> _watchdog;
    std::uint64_t _auditViolations = 0;
    /** Ops of every kernel launched so far (RunResult::opsSubmitted). */
    std::uint64_t _opsSubmitted = 0;

    /** Run-level latency histograms, the run's latency slot. */
    obs::LatencyHistograms _latency;
    /** Per-fault causal spans, the run's spans slot. */
    obs::FaultSpans _spans;
    /** Built only when SystemConfig::pageStats.enabled. */
    std::unique_ptr<obs::PageStats> _pageStats;
    /** Built only when SystemConfig::timeseriesTick > 0. */
    std::unique_ptr<obs::TimeSeries> _timeSeries;
    /** Built only when SystemConfig::hostProf. */
    std::unique_ptr<obs::HostProfiler> _hostProf;

    bool _ran = false;

    /**
     * The request reached the owner: its RDMA engine serves the line,
     * and replyDca() runs when the line is ready.
     */
    void serveDca(gpu::AccessId id);
    /** The owner's line is ready: leave its data phase and reply. */
    void replyDca(gpu::AccessId id);
    /** The reply landed at the requester: release the record. */
    void finishDca(gpu::AccessId id);

    /** Σ @p counter over every GPU. */
    std::uint64_t sumGpus(std::uint64_t gpu::Gpu::*counter) const;

    /** Launch kernel @p k of @p workload, or stop when none is left. */
    void launchKernel(wl::Workload &workload, unsigned k);

    RunResult collectResults();
};

} // namespace griffin::sys

#endif // GRIFFIN_SYS_MULTI_GPU_SYSTEM_HH
