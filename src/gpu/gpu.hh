/**
 * @file
 * One GPU of the multi-GPU system: 4 Shader Engines x 9 Compute Units
 * (paper Table II), per-CU L1 caches and L1 TLBs, a shared L2 cache
 * and L2 TLB, local HBM, an RDMA engine for incoming DCA traffic, and
 * the GPU-side migration machinery (ACUD drain, pipeline flush,
 * selective TLB shootdown, selective L2 flush).
 */

#ifndef GRIFFIN_GPU_GPU_HH
#define GRIFFIN_GPU_GPU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/gpu/access.hh"
#include "src/gpu/access_counter.hh"
#include "src/gpu/compute_unit.hh"
#include "src/gpu/data_phase.hh"
#include "src/gpu/pmc.hh"
#include "src/gpu/rdma.hh"
#include "src/gpu/remote.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/cache.hh"
#include "src/mem/dram.hh"
#include "src/sim/engine.hh"
#include "src/sim/types.hh"
#include "src/workloads/trace.hh"
#include "src/xlat/iommu.hh"
#include "src/xlat/tlb.hh"

namespace griffin::gpu {

/** Per-GPU configuration (defaults follow paper Table II). */
struct GpuConfig
{
    unsigned numSes = 4;
    unsigned cusPerSe = 9;
    mem::CacheConfig l1Cache{16 * 1024, 4, 1};
    mem::CacheConfig l2Cache{8ull * 256 * 1024, 16, 20};
    mem::DramConfig dram{};
    xlat::TlbConfig l1Tlb{1, 32, 1};
    xlat::TlbConfig l2Tlb{32, 16, 10};
    CuConfig cu{};
    unsigned pageShift = 12;
    /** Intra-GPU crossbar hop (paper Table II: single-stage XBar). */
    Tick xbarLatency = 8;
    /** Cycles to scan the in-flight buffers against a drain request. */
    Tick drainCheckLatency = 8;
    /** Cost of a selective TLB shootdown once the GPU is drained. */
    Tick shootdownLatency = 20;
    /** Fixed pipeline-flush recovery cost (conventional scheme). */
    Tick flushRecoveryLatency = 500;
    std::size_t accessCounterCapacity = 100;

    unsigned numCus() const { return numSes * cusPerSe; }
};

/**
 * The GPU model. Implements CuMemoryInterface: every CU transaction
 * funnels through cuAccess(), which records it in the system's access
 * table, performs address translation (L1 TLB -> L2 TLB -> IOMMU over
 * the fabric) and then either a local cache-hierarchy access or a
 * remote DCA access via the router.
 */
class Gpu : public CuMemoryInterface
{
  public:
    /** Observer invoked on every post-coalescing access (benches). */
    using AccessProbe =
        std::function<void(Tick, DeviceId gpu, PageId page)>;

    Gpu(sim::Engine &engine, DeviceId id, const GpuConfig &config,
        ic::Network &network, xlat::Iommu &iommu, RemoteRouter &router,
        AccessTable &accesses);

    DeviceId id() const { return _id; }
    const GpuConfig &config() const { return _config; }

    /** @name Workgroup execution @{ */

    /** Queue a workgroup; it starts as soon as a CU frees up. */
    void enqueueWorkgroup(wl::Workgroup wg);

    /** Callback fired every time a workgroup retires. */
    void setWorkgroupDoneCallback(sim::EventFn cb) { _wgDoneCb = std::move(cb); }

    /** True when no workgroup is queued or running. */
    bool idle() const;

    /** Number of CUs currently without a workgroup. */
    unsigned freeCus() const;

    /** Number of CUs currently executing a workgroup (probes). */
    unsigned busyCus() const;

    /** Workgroups queued but not yet dispatched (watchdog probe). */
    std::size_t queuedWorkgroups() const { return _wgQueue.size(); }

    /** True while an ACUD drain awaits quiescence (watchdog probe). */
    bool drainActive() const { return _dataPhase.awaiting(); }

    /** @} */

    /** @name CU memory interface @{ */
    void cuAccess(unsigned cu_id, Addr vaddr, bool is_write,
                  OpDone done) override;
    /** @} */

    /** @name Migration machinery (driver/executor facing) @{ */

    /**
     * ACUD: pause all CUs, then complete as soon as no in-flight
     * data-phase access targets any page in @p pages (sorted).
     * Caller performs shootdown/flush and then resumeAllCus().
     */
    void drainForPages(std::shared_ptr<const std::vector<PageId>> pages,
                       sim::EventFn done);

    /**
     * Conventional quiesce: discard all in-flight work on every CU,
     * invalidate all TLBs, flush both cache levels entirely, then pay
     * the recovery latency. @p done fires when the GPU is quiesced.
     */
    void flushForMigration(sim::EventFn done);

    /** Restart issue on every CU (the ACUD "Continue" message). */
    void resumeAllCus();

    /**
     * Selective TLB shootdown of @p pages (sorted) across all L1 TLBs
     * and the L2 TLB. Counts one shootdown event.
     */
    void shootdownPages(const std::vector<PageId> &pages);

    /**
     * Write back and invalidate the L2 (and L1) lines of @p pages.
     * @return when the writeback traffic has drained to DRAM.
     */
    Tick flushCachesForPages(const std::vector<PageId> &pages);

    /** @} */

    /** @name DCA service and drain bookkeeping (system facing) @{ */
    Rdma &rdma() { return _rdma; }
    DataPhase &dataPhase() { return _dataPhase; }
    /** @} */

    /** @name DPC hardware (policy facing) @{ */

    /** Feed the SE access counters (off until a policy reads them). */
    void enableAccessCounting() { _countAccesses = true; }

    /**
     * Collect and reset the per-SE access counters, merged into one
     * per-GPU list (the paper's 110-byte driver message carries it).
     */
    std::vector<PageCount> collectAccessCounts();

    /** @} */

    /** @name Component access for stats and tests @{ */
    ComputeUnit &cu(unsigned idx) { return *_cus[idx]; }
    const ComputeUnit &cu(unsigned idx) const { return *_cus[idx]; }
    unsigned numCus() const { return unsigned(_cus.size()); }
    /** Shader Engine @p se's page access counter table. */
    AccessCounter &accessCounter(unsigned se) { return _counters[se]; }
    mem::Cache &l2() { return _l2; }
    mem::Dram &dram() { return _dram; }
    xlat::Tlb &l2Tlb() { return _l2Tlb; }
    xlat::Tlb &l1Tlb(unsigned cu_idx) { return _l1Tlbs[cu_idx]; }
    mem::Cache &l1Cache(unsigned cu_idx) { return _l1s[cu_idx]; }
    /** @} */

    /** Install an access probe (nullptr to disable). */
    void setAccessProbe(AccessProbe probe) { _probe = std::move(probe); }

    /** @name Statistics @{ */
    std::uint64_t localAccesses = 0;
    std::uint64_t remoteAccesses = 0;   ///< outgoing DCA
    std::uint64_t xlatRequestsSent = 0; ///< L2 TLB misses -> IOMMU
    std::uint64_t tlbShootdownEvents = 0;
    std::uint64_t tlbEntriesShotDown = 0;
    std::uint64_t drains = 0;
    std::uint64_t drainsImmediate = 0;
    /** Cycles spent with issue paused (drain/flush overhead). */
    std::uint64_t pausedCycles = 0;
    std::uint64_t fullFlushes = 0;
    std::uint64_t workgroupsExecuted = 0;
    /** @} */

  private:
    sim::Engine &_engine;
    DeviceId _id;
    GpuConfig _config;
    ic::Network &_network;
    xlat::Iommu &_iommu;
    RemoteRouter &_router;
    /**
     * The system's in-flight accesses. An access's record lives here
     * from cuAccess() until its data returns (local) or the router
     * releases it (remote); every hop's event captures {this, id}.
     */
    AccessTable &_accesses;

    std::vector<std::unique_ptr<ComputeUnit>> _cus;
    /**
     * One page access counter per Shader Engine (paper SS III-C:
     * "Each Shader Engine (a group of up to 16 Compute Units...) is
     * augmented with a page access counter"); CU c counts into
     * seOfCu(c).
     */
    std::vector<AccessCounter> _counters;
    bool _countAccesses = false;
    std::vector<mem::Cache> _l1s;
    std::vector<xlat::Tlb> _l1Tlbs;
    mem::Cache _l2;
    xlat::Tlb _l2Tlb;
    mem::Dram _dram;
    /** In-flight post-translation accesses (local and DCA). */
    DataPhase _dataPhase;
    Rdma _rdma;

    std::deque<wl::Workgroup> _wgQueue;
    sim::EventFn _wgDoneCb;

    Tick _pausedSince = 0;

    AccessProbe _probe;

    unsigned seOfCu(unsigned cu_id) const { return cu_id / _config.cusPerSe; }
    PageId pageOf(Addr vaddr) const { return vaddr >> _config.pageShift; }

    void tryDispatchWorkgroups();
    void onWorkgroupDone(unsigned cu_idx);

    void haveTranslation(DeviceId location, AccessId id);
    void localAccess(AccessId id);
    /**
     * End of the local data phase: release the record, leave the data
     * phase, then run done.
     */
    void finishLocal(AccessId id);
};

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_GPU_HH
