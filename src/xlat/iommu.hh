/**
 * @file
 * The IOMMU: the CPU-side translation agent every GPU L2-TLB miss is
 * forwarded to (paper SS II-B, Figures 3-5).
 *
 * It owns a pool of multi-threaded page table walkers (8 in the
 * paper's configuration), an IOTLB that short-circuits walks for
 * GPU-resident pages, and the fault path: walks that resolve to a
 * CPU-resident page are handed to the installed MigrationPolicy,
 * which either triggers demand paging (the request parks until the
 * driver completes the migration) or redirects the access to CPU
 * memory via DCA.
 *
 * CPU-resident pages are deliberately *not* cached in the IOTLB: the
 * policy must observe every access to them, which is how DFTM detects
 * the second touch (SS III-A).
 */

#ifndef GRIFFIN_XLAT_IOMMU_HH
#define GRIFFIN_XLAT_IOMMU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/core/migration_policy.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/page_table.hh"
#include "src/sim/engine.hh"
#include "src/sim/node_stock.hh"
#include "src/sim/slot_pool.hh"
#include "src/sim/types.hh"
#include "src/xlat/fault_handler.hh"
#include "src/xlat/tlb.hh"

namespace griffin::sys {
class FaultInjector;
} // namespace griffin::sys

namespace griffin::xlat {

/** IOMMU parameters (paper Table II: 8 page table walkers). */
struct IommuConfig
{
    unsigned numWalkers = 8;
    /** Full four-level walk out of CPU caches/DRAM. */
    Tick walkLatency = 300;
    TlbConfig iotlb{256, 16, 8};
};

/** Answer to a translation request. */
struct XlatReply
{
    DeviceId location = cpuDeviceId;
    /** May the GPU cache this translation in its TLBs? */
    bool cacheable = false;
};

/**
 * Completion callback of a translation request. Move-only with inline
 * capture storage (see sim::InlineFn): requesters capture the slot
 * of their per-access state, which fits inline; the IOMMU keeps the
 * callback in its own request slot until the reply lands.
 */
using XlatDone = sim::InlineFn<void(XlatReply)>;

/**
 * The IOMMU model.
 */
class Iommu
{
  public:
    Iommu(sim::Engine &engine, ic::Network &network, mem::PageTable &pt,
          const IommuConfig &config);

    /** Install the placement policy (required before requests). */
    void setPolicy(core::MigrationPolicy *policy) { _policy = policy; }

    /** Install the fault receiver (required before requests). */
    void setFaultHandler(FaultHandler *handler) { _faultHandler = handler; }

    /**
     * Attach a fault injector (nullptr detaches). When set, each page
     * table walk may stall for an extra fixed penalty.
     */
    void setFaultInjector(sys::FaultInjector *injector)
    {
        _injector = injector;
    }

    /**
     * A translation request has arrived at the IOMMU (the requester
     * already paid the fabric crossing). The reply is sent back over
     * the fabric; @p done runs at the requester.
     *
     * @param origin the requester-side TLB-miss timestamp, used as
     *               the span origin if this request turns into a page
     *               fault; defaults to arrival time at the IOMMU.
     */
    void request(DeviceId requester, PageId page, bool is_write,
                 XlatDone done, Tick origin = maxTick);

    /**
     * Mark @p page as under migration: new and parked requests wait
     * until onMigrationDone(). Also purges the IOTLB entry.
     */
    void blockPage(PageId page);

    /**
     * The driver finished migrating @p page (the page table already
     * points at the new location): replay parked requests.
     */
    void onMigrationDone(PageId page);

    /** Drop a (possibly stale) IOTLB entry for @p page. */
    void invalidateIotlb(PageId page) { _iotlb.invalidatePage(page); }

    /**
     * True from the moment @p page is selected for migration until
     * the transfer commits (migrationPending covers selection to
     * shootdown, migrating covers shootdown to commit). GPUs consult
     * this before caching a translation reply: a reply that was in
     * flight when the migration's TLB purge ran would otherwise
     * re-fill the TLB with the old location after the purge — the
     * reply fence real shootdown protocols require.
     */
    bool
    pageMigrating(PageId page) const
    {
        const mem::PageInfo &pi = _pageTable.info(page);
        return pi.migrating || pi.migrationPending;
    }

    /**
     * Cache a CPU-resident translation in the IOTLB. Normally the
     * IOMMU refuses to do this so the policy observes every touch of
     * a CPU page; DFTM uses it during a denial lease so the first
     * sweep streams via DCA without walking per access. The policy
     * must invalidate the entry when the lease expires.
     */
    void cacheCpuResident(PageId page) { _iotlb.fill(page, cpuDeviceId); }

    const Tlb &iotlb() const { return _iotlb; }

    /** Pending + in-service walk count (for CPMS batching heuristics). */
    unsigned
    activeWalks() const
    {
        return _busyWalkers + unsigned(_walkQueue.size());
    }

    /** Walkers currently in a walk (occupancy probe). */
    unsigned busyWalkers() const { return _busyWalkers; }

    /** Requests parked behind in-flight migrations (watchdog probe). */
    std::size_t
    parkedCount() const
    {
        std::size_t count = 0;
        for (const auto &[page, waiters] : _parked)
            count += waiters.size();
        return count;
    }

    const IommuConfig &config() const { return _config; }

    /** @name Statistics @{ */
    std::uint64_t requests = 0;
    std::uint64_t iotlbHits = 0;
    std::uint64_t walks = 0;
    std::uint64_t faultsRaised = 0;
    std::uint64_t dcaRedirects = 0;     ///< CPU-resident, served remotely
    std::uint64_t parkedRequests = 0;   ///< waited on an ongoing migration
    std::uint64_t walksStalled = 0;     ///< injected walker stalls
    std::uint64_t fallbackRedirects = 0; ///< served via dcaFallback pages
    /** @} */

  private:
    /**
     * One translation request, in _requests from arrival until its
     * reply lands at the requester. The walk queue, the parked lists
     * and every hop's event hold its slot index.
     */
    struct Request
    {
        DeviceId requester;
        PageId page;
        bool isWrite;
        XlatDone done;
        /** Requester-side TLB-miss time (span origin on a fault). */
        Tick origin = 0;
        /** When a walker picked this page up / finished the walk. */
        Tick walkStart = 0;
        Tick walkEnd = 0;
        /** Span identity, allocated only if a fault is raised. */
        FaultId fid = invalidFaultId;
    };

    sim::Engine &_engine;
    ic::Network &_network;
    mem::PageTable &_pageTable;
    IommuConfig _config;
    Tlb _iotlb;

    core::MigrationPolicy *_policy = nullptr;
    FaultHandler *_faultHandler = nullptr;
    sys::FaultInjector *_injector = nullptr;

    using Waiters = std::unordered_map<PageId, std::vector<sim::SlotId>>;

    sim::SlotPool<Request> _requests;
    /** Pages queued for a walk, FCFS; waiters held in _walkWaiters. */
    std::deque<PageId> _walkQueue;
    /** Requests waiting on a queued or in-flight walk, per page. */
    Waiters _walkWaiters;
    /** Nodes of finished walks, each holding an empty vector. */
    sim::NodeStock<Waiters> _waiterStock;
    /** The waiters of the walk finishWalk() is resolving. */
    std::vector<sim::SlotId> _resolving;
    unsigned _busyWalkers = 0;
    Waiters _parked;

    void startWalks();
    void finishWalk(PageId page);
    void resolve(sim::SlotId slot);
    /** Send the reply; the slot is released when it lands. */
    void reply(sim::SlotId slot, XlatReply rep);
};

} // namespace griffin::xlat

#endif // GRIFFIN_XLAT_IOMMU_HH
