#include "src/xlat/iommu.hh"

#include <cassert>
#include <string>
#include <utility>

#include "src/obs/hostprof.hh"
#include "src/obs/telemetry.hh"
#include "src/obs/trace.hh"
#include "src/sim/log.hh"
#include "src/sys/chaos.hh"

namespace griffin::xlat {

namespace {
/** The IOMMU's trace track. */
const std::string kTrack = "iommu";
} // namespace

Iommu::Iommu(sim::Engine &engine, ic::Network &network, mem::PageTable &pt,
             const IommuConfig &config)
    : _engine(engine), _network(network), _pageTable(pt), _config(config),
      _iotlb(config.iotlb)
{
    assert(config.numWalkers > 0);
}

void
Iommu::request(DeviceId requester, PageId page, bool is_write, XlatDone done,
               Tick origin)
{
    assert(_policy && _faultHandler &&
           "policy and fault handler must be installed first");
    ++requests;

    if (origin == maxTick)
        origin = _engine.now();
    // The request (callback included) waits in a slot through the
    // whole pipeline; every hop below captures just {this, slot}.
    const sim::SlotId s =
        _requests.acquire(requester, page, is_write, std::move(done), origin);

    // IOTLB probe first; a hit skips the walk entirely.
    _engine.schedule(_iotlb.latency(), [this, s] {
        GHPROF_SCOPE("iommu", "iotlb");
        const Request &r = _requests[s];
        // A page under migration must park even on what would be an
        // IOTLB hit; blockPage() purges the entry, so a lookup hit
        // implies the page is stable.
        if (auto loc = _iotlb.lookup(r.page)) {
            ++iotlbHits;
            reply(s, XlatReply{*loc, *loc == r.requester});
            return;
        }
        // Coalesce with a queued or in-flight walk of the same page:
        // the walkers resolve a page once, however many requesters
        // pile up behind it (this matters after a migration, when
        // every wavefront of every GPU re-faults the page at once).
        auto it = _walkWaiters.find(r.page);
        if (it != _walkWaiters.end()) {
            it->second.push_back(s);
            return;
        }
        _waiterStock.insert(_walkWaiters, r.page)->second.push_back(s);
        _walkQueue.push_back(r.page);
        startWalks();
    });
}

void
Iommu::startWalks()
{
    while (_busyWalkers < _config.numWalkers && !_walkQueue.empty()) {
        const PageId page = _walkQueue.front();
        _walkQueue.pop_front();
        ++_busyWalkers;
        ++walks;
        // Waiters present now left the walk queue; late coalescers
        // keep walkStart = 0, which the span sink clamps to a
        // zero-length queue stage.
        auto it = _walkWaiters.find(page);
        assert(it != _walkWaiters.end());
        for (const sim::SlotId s : it->second)
            _requests[s].walkStart = _engine.now();
        Tick latency = _config.walkLatency;
        if (_injector && _injector->stallWalker()) {
            // Injected walker stall: the walk simply takes longer;
            // every coalesced waiter absorbs the penalty.
            const Tick penalty = _injector->config().walkerStallPenalty;
            latency += penalty;
            ++walksStalled;
            _injector->noteRecoveryCycles(penalty);
            if (auto *tr = obs::TraceSession::activeFor(obs::CatChaos)) {
                tr->instant(obs::CatChaos, kTrack, "walker_stall",
                            _engine.now(),
                            obs::TraceArgs()
                                .add("page", page)
                                .add("penalty", penalty));
            }
        }
        _engine.schedule(latency, [this, page] {
            GHPROF_SCOPE("iommu", "walk_done");
            finishWalk(page);
        });
    }
}

void
Iommu::finishWalk(PageId page)
{
    assert(_busyWalkers > 0);
    --_busyWalkers;
    startWalks();

    auto it = _walkWaiters.find(page);
    assert(it != _walkWaiters.end() && _resolving.empty());
    _resolving.swap(it->second);
    _waiterStock.retire(_walkWaiters, it);
    for (const sim::SlotId s : _resolving) {
        _requests[s].walkEnd = _engine.now();
        resolve(s);
    }
    _resolving.clear();
}

void
Iommu::resolve(sim::SlotId s)
{
    Request &req = _requests[s];
    mem::PageInfo &pi = _pageTable.info(req.page);

    if (pi.migrating) {
        ++parkedRequests;
        if (auto *tr = obs::TraceSession::activeFor(obs::CatFault)) {
            tr->instant(obs::CatFault, kTrack, "request_parked",
                        _engine.now(),
                        obs::TraceArgs()
                            .add("gpu", req.requester)
                            .add("page", req.page));
        }
        _parked[req.page].push_back(s);
        return;
    }

    if (pi.dcaFallback) {
        // A recovery timeout degraded this page to DCA remote access:
        // serve it from CPU memory without consulting the policy, so
        // an abort can never re-enter the migration machinery.
        ++dcaRedirects;
        ++fallbackRedirects;
        reply(s, XlatReply{cpuDeviceId, false});
        return;
    }

    if (pi.location == cpuDeviceId) {
        const auto decision =
            _policy->onCpuResidentAccess(req.requester, req.page, _pageTable);
        if (decision.migrate) {
            ++faultsRaised;
            pi.migrating = true;
            const DeviceId requester = req.requester;
            const PageId page = req.page;
            // Open the span: the pre-fault stages (queue, walk,
            // policy) are known in full right here.
            const FaultId fid =
                obs::faultRaised(requester, page, req.origin,
                                 req.walkStart, req.walkEnd, _engine.now());
            req.fid = fid;
            _parked[page].push_back(s);
            GLOG(Trace, "iommu: fault page " << page << " -> gpu "
                                             << requester);
            _faultHandler->onPageFault(requester, page, fid);
        } else {
            ++dcaRedirects;
            if (auto *tr = obs::TraceSession::activeFor(obs::CatDca)) {
                tr->instant(obs::CatDca, kTrack, "dca_redirect",
                            _engine.now(),
                            obs::TraceArgs()
                                .add("gpu", req.requester)
                                .add("page", req.page));
            }
            // DCA to CPU memory: translation is never cacheable, so
            // the policy sees the next access too (second touch).
            reply(s, XlatReply{cpuDeviceId, false});
        }
        return;
    }

    // GPU-resident page: cache it in the IOTLB and answer. The GPU
    // may cache the translation only if the page is local to it.
    _iotlb.fill(req.page, pi.location);
    reply(s, XlatReply{pi.location, pi.location == req.requester});
}

void
Iommu::reply(sim::SlotId s, XlatReply rep)
{
    _network.send(cpuDeviceId, _requests[s].requester,
                  ic::MessageSizes::xlatReply, [this, s, rep] {
        GHPROF_SCOPE("iommu", "xlat_reply");
        Request req = _requests.take(s);
        // A reply that retires a fault closes its span here, where the
        // stalled wavefront actually resumes.
        if (req.fid != invalidFaultId)
            obs::faultResumed(req.fid, req.requester, _engine.now());
        req.done(rep);
    });
}

void
Iommu::blockPage(PageId page)
{
    _pageTable.info(page).migrating = true;
    _iotlb.invalidatePage(page);
}

void
Iommu::onMigrationDone(PageId page)
{
    assert(!_pageTable.info(page).migrating &&
           "page table must be updated before onMigrationDone");
    _iotlb.invalidatePage(page);

    auto it = _parked.find(page);
    if (it == _parked.end())
        return;
    std::vector<sim::SlotId> waiters = std::move(it->second);
    _parked.erase(it);
    for (const sim::SlotId s : waiters)
        resolve(s);
}

} // namespace griffin::xlat
