#include "src/gpu/gpu.hh"

#include "src/obs/hostprof.hh"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "src/obs/trace.hh"
#include "src/sim/log.hh"

namespace griffin::gpu {

Gpu::Gpu(sim::Engine &engine, DeviceId id, const GpuConfig &config,
         ic::Network &network, xlat::Iommu &iommu, RemoteRouter &router,
         AccessTable &accesses)
    : _engine(engine), _id(id), _config(config), _network(network),
      _iommu(iommu), _router(router), _accesses(accesses),
      _l2(config.l2Cache), _l2Tlb(config.l2Tlb), _dram(config.dram),
      _rdma(_l2, _dram)
{
    assert(id != cpuDeviceId && "device 0 is the CPU");
    assert(config.cusPerSe > 0 && config.cusPerSe <= 16 &&
           "a Shader Engine groups up to 16 CUs");

    const unsigned num_cus = config.numCus();
    _cus.reserve(num_cus);
    _l1s.reserve(num_cus);
    _l1Tlbs.reserve(num_cus);
    for (unsigned cu_id = 0; cu_id < num_cus; ++cu_id) {
        _cus.push_back(std::make_unique<ComputeUnit>(engine, *this, cu_id,
                                                     config.cu));
        _l1s.emplace_back(config.l1Cache);
        _l1Tlbs.emplace_back(config.l1Tlb);
    }
    _counters.reserve(config.numSes);
    for (unsigned se = 0; se < config.numSes; ++se)
        _counters.emplace_back(config.accessCounterCapacity);
}

// ---------------------------------------------------------------------
// Workgroup execution
// ---------------------------------------------------------------------

void
Gpu::enqueueWorkgroup(wl::Workgroup wg)
{
    _wgQueue.push_back(std::move(wg));
    tryDispatchWorkgroups();
}

void
Gpu::tryDispatchWorkgroups()
{
    for (unsigned cu_idx = 0; cu_idx < _cus.size() && !_wgQueue.empty();
         ++cu_idx) {
        if (_cus[cu_idx]->busy())
            continue;
        wl::Workgroup wg = std::move(_wgQueue.front());
        _wgQueue.pop_front();
        _cus[cu_idx]->startWorkgroup(std::move(wg), [this, cu_idx] {
            onWorkgroupDone(cu_idx);
        });
    }
}

void
Gpu::onWorkgroupDone(unsigned cu_idx)
{
    ++workgroupsExecuted;
    if (!_wgQueue.empty() && !_cus[cu_idx]->busy()) {
        wl::Workgroup wg = std::move(_wgQueue.front());
        _wgQueue.pop_front();
        _cus[cu_idx]->startWorkgroup(std::move(wg), [this, cu_idx] {
            onWorkgroupDone(cu_idx);
        });
    }
    if (_wgDoneCb)
        _wgDoneCb();
}

unsigned
Gpu::freeCus() const
{
    unsigned free = 0;
    for (const auto &cu : _cus)
        free += cu->busy() ? 0 : 1;
    return free > unsigned(_wgQueue.size())
        ? free - unsigned(_wgQueue.size())
        : 0;
}

unsigned
Gpu::busyCus() const
{
    unsigned busy = 0;
    for (const auto &cu : _cus)
        busy += cu->busy() ? 1 : 0;
    return busy;
}

bool
Gpu::idle() const
{
    if (!_wgQueue.empty())
        return false;
    for (const auto &cu : _cus) {
        if (cu->busy())
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Memory access path
// ---------------------------------------------------------------------

void
Gpu::cuAccess(unsigned cu_id, Addr vaddr, bool is_write, OpDone done)
{
    const PageId page = pageOf(vaddr);

    // DPC hardware: the SE access counter intercepts the request on
    // its way to the TLB (paper SS III-C: counted before translation).
    if (_countAccesses)
        _counters[seOfCu(cu_id)].record(page);
    if (_probe)
        _probe(_engine.now(), _id, page);

    // The access (completion included) waits in its record for the
    // whole chain; each hop captures {this, id}.
    const AccessId id =
        _accesses.acquire(vaddr, page, done, cu_id, _id, is_write);

    // L1 TLB.
    _engine.schedule(_l1Tlbs[cu_id].latency(), [this, id] {
        GHPROF_SCOPE("gpu", "l1_tlb");
        const Access &r = _accesses[id];
        if (auto loc = _l1Tlbs[r.cuId].lookup(r.page)) {
            haveTranslation(*loc, id);
            return;
        }
        // L2 TLB.
        _engine.schedule(_l2Tlb.latency(), [this, id] {
            GHPROF_SCOPE("gpu", "l2_tlb");
            const Access &r = _accesses[id];
            if (auto loc = _l2Tlb.lookup(r.page)) {
                _l1Tlbs[r.cuId].fill(r.page, *loc);
                haveTranslation(*loc, id);
                return;
            }
            // IOMMU over the fabric. The miss time here is the span
            // origin if this access ends up faulting.
            ++xlatRequestsSent;
            const Tick miss_at = _engine.now();
            _network.send(_id, cpuDeviceId, ic::MessageSizes::xlatRequest,
                          [this, miss_at, id] {
                GHPROF_SCOPE("gpu", "xlat_request");
                const Access &r = _accesses[id];
                _iommu.request(_id, r.page, r.isWrite,
                               [this, id](xlat::XlatReply reply) {
                    // Remote translations are never cached in the GPU
                    // TLBs (paper SS II-B). A cacheable reply is also
                    // fenced against migration: if the page went into
                    // migration while the reply crossed the fabric,
                    // the shootdown already ran and filling now would
                    // plant a stale entry nothing will invalidate.
                    const Access &r = _accesses[id];
                    if (reply.cacheable &&
                        !_iommu.pageMigrating(r.page)) {
                        _l1Tlbs[r.cuId].fill(r.page, reply.location);
                        _l2Tlb.fill(r.page, reply.location);
                    }
                    haveTranslation(reply.location, id);
                },
                miss_at);
            });
        });
    });
}

void
Gpu::haveTranslation(DeviceId location, AccessId id)
{
    Access &r = _accesses[id];
    r.owner = location;
    if (location == _id) {
        ++localAccesses;
        r.dataPhase = _dataPhase.enter(r.page);
        localAccess(id);
    } else {
        ++remoteAccesses;
        r.begin = _engine.now();
        _router.remoteAccess(id);
    }
}

void
Gpu::finishLocal(AccessId id)
{
    const Access r = _accesses.take(id);
    _dataPhase.leave(r.dataPhase);
    r.done();
}

void
Gpu::localAccess(AccessId id)
{
    _engine.schedule(_l1s[_accesses[id].cuId].latency(), [this, id] {
        GHPROF_SCOPE("gpu", "l1_cache");
        const Access &r = _accesses[id];
        const auto r1 = _l1s[r.cuId].access(r.vaddr, r.isWrite);
        if (r1.writeback) {
            // Dirty L1 victim drains into the L2 asynchronously.
            const Addr wb = r1.writebackAddr;
            _engine.schedule(_config.xbarLatency, [this, wb] {
                GHPROF_SCOPE("gpu", "l2_writeback");
                const auto r = _l2.access(wb, true);
                if (r.writeback)
                    _dram.access(_engine.now(), r.writebackAddr, lineBytes,
                                 true);
            });
        }
        if (r1.hit) {
            finishLocal(id);
            return;
        }

        // L1 miss: cross the XBar to the shared L2.
        _engine.schedule(_config.xbarLatency + _l2.latency(), [this, id] {
            GHPROF_SCOPE("gpu", "l2_cache");
            const Access &r = _accesses[id];
            const auto r2 = _l2.access(r.vaddr, r.isWrite);
            if (r2.writeback)
                _dram.access(_engine.now(), r2.writebackAddr, lineBytes,
                             true);
            if (r2.hit) {
                _engine.schedule(_config.xbarLatency,
                                 [this, id] { finishLocal(id); });
                return;
            }
            // L2 miss: local HBM (write-allocate reads the line).
            const Tick ready =
                _dram.access(_engine.now(), r.vaddr, lineBytes, false);
            _engine.scheduleAt(ready + _config.xbarLatency,
                               [this, id] { finishLocal(id); });
        });
    });
}

// ---------------------------------------------------------------------
// Drain / flush machinery
// ---------------------------------------------------------------------

void
Gpu::drainForPages(std::shared_ptr<const std::vector<PageId>> pages,
                   sim::EventFn done)
{
    ++drains;
    _pausedSince = _engine.now();

    if (obs::TraceSession::activeFor(obs::CatDrain)) {
        const Tick begin = _engine.now();
        const std::size_t npages = pages->size();
        done = sim::boxed([this, begin, npages, done = std::move(done)] {
            if (auto *tr = obs::TraceSession::activeFor(obs::CatDrain)) {
                tr->complete(obs::CatDrain, "gpu" + std::to_string(_id),
                             "acud_drain", begin, _engine.now(),
                             obs::TraceArgs().add("pages", npages));
            }
            done();
        });
    }

    // Pause the workgroup schedulers: no new instructions issue while
    // the drain is pending (paper SS III-D).
    for (auto &cu : _cus)
        cu->pauseIssue();

    // Scan the in-flight buffers after the comparator latency, then
    // wait only for accesses that target the migrating pages: the last
    // of them to leave the data phase ends the drain.
    _dataPhase.beginDrain(std::move(pages));
    _engine.schedule(_config.drainCheckLatency,
                     sim::boxed([this, done = std::move(done)]() mutable {
        GHPROF_SCOPE("gpu", "drain_check");
        if (_dataPhase.satisfied()) {
            ++drainsImmediate;
            _dataPhase.endDrain();
            done();
            return;
        }
        _dataPhase.await(std::move(done));
    }));
}

void
Gpu::flushForMigration(sim::EventFn done)
{
    assert(!_dataPhase.awaiting() && "cannot flush during a drain");
    ++fullFlushes;
    _pausedSince = _engine.now();

    // Discard all in-flight work on every CU.
    for (auto &cu : _cus)
        cu->flushPipeline();

    // Invalidate every TLB entry on this GPU.
    std::uint64_t entries = 0;
    for (auto &tlb : _l1Tlbs)
        entries += tlb.invalidateAll();
    entries += _l2Tlb.invalidateAll();
    ++tlbShootdownEvents;
    tlbEntriesShotDown += entries;

    // Flush both cache levels; dirty lines drain into local DRAM.
    Tick last_wb = _engine.now();
    for (auto &l1 : _l1s) {
        const auto fr = l1.flushAll();
        for (std::uint64_t i = 0; i < fr.dirtyWritebacks; ++i) {
            last_wb = std::max(
                last_wb, _dram.access(_engine.now(), 0, lineBytes, true));
        }
    }
    const auto fr2 = _l2.flushAll();
    for (std::uint64_t i = 0; i < fr2.dirtyWritebacks; ++i) {
        last_wb = std::max(
            last_wb, _dram.access(_engine.now(), 0, lineBytes, true));
    }

    const Tick delay = (last_wb - _engine.now()) +
                       _config.flushRecoveryLatency;
    if (auto *tr = obs::TraceSession::activeFor(obs::CatDrain)) {
        tr->complete(obs::CatDrain, "gpu" + std::to_string(_id),
                     "full_flush", _engine.now(), _engine.now() + delay,
                     obs::TraceArgs().add("entries", entries));
    }
    _engine.schedule(delay, std::move(done));
}

void
Gpu::resumeAllCus()
{
    pausedCycles += _engine.now() - _pausedSince;
    if (auto *tr = obs::TraceSession::activeFor(obs::CatDrain)) {
        tr->complete(obs::CatDrain, "gpu" + std::to_string(_id), "paused",
                     _pausedSince, _engine.now(), obs::TraceArgs());
    }
    for (auto &cu : _cus) {
        if (cu->paused())
            cu->resume();
    }
}

void
Gpu::shootdownPages(const std::vector<PageId> &pages)
{
    assert(std::is_sorted(pages.begin(), pages.end()));
    ++tlbShootdownEvents;
    std::uint64_t entries = 0;
    for (const PageId page : pages) {
        for (auto &tlb : _l1Tlbs)
            entries += tlb.invalidatePage(page) ? 1 : 0;
        entries += _l2Tlb.invalidatePage(page) ? 1 : 0;
    }
    tlbEntriesShotDown += entries;
    GLOG(Trace, "gpu " << _id << ": shootdown of " << pages.size()
                       << " pages, " << entries << " entries");
    if (auto *tr = obs::TraceSession::activeFor(obs::CatShootdown)) {
        tr->instant(obs::CatShootdown, "gpu" + std::to_string(_id),
                    "tlb_shootdown", _engine.now(),
                    obs::TraceArgs()
                        .add("pages", pages.size())
                        .add("entries", entries));
    }
}

Tick
Gpu::flushCachesForPages(const std::vector<PageId> &pages)
{
    Tick last_wb = _engine.now();
    std::uint64_t dirty = 0;
    for (auto &l1 : _l1s)
        dirty += l1.flushPages(pages, _config.pageShift).dirtyWritebacks;
    dirty += _l2.flushPages(pages, _config.pageShift).dirtyWritebacks;

    for (std::uint64_t i = 0; i < dirty; ++i) {
        // Address 0 per line is fine for the channel model: the
        // writeback burst is what costs time, not its placement.
        last_wb = std::max(last_wb,
                           _dram.access(_engine.now(),
                                        Addr(i) * lineBytes,
                                        lineBytes, true));
    }
    return last_wb;
}

// ---------------------------------------------------------------------
// DPC hardware
// ---------------------------------------------------------------------

std::vector<PageCount>
Gpu::collectAccessCounts()
{
    std::vector<PageCount> out;
    constexpr std::size_t topN = ic::MessageSizes::accessCountPages;
    out.reserve(_counters.size() * topN);
    for (AccessCounter &counter : _counters) {
        const auto top = counter.collectTop(topN);
        out.insert(out.end(), top.begin(), top.end());
    }
    // Merge the SEs' reports: one entry per page, counts summed.
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.page < b.page;
    });
    std::size_t merged = 0;
    for (const PageCount &pc : out) {
        if (merged > 0 && out[merged - 1].page == pc.page)
            out[merged - 1].count += pc.count;
        else
            out[merged++] = pc;
    }
    out.resize(merged);
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        if (a.count != b.count)
            return a.count > b.count;
        return a.page < b.page;
    });
    return out;
}

} // namespace griffin::gpu
