#include "src/gpu/pmc.hh"

#include "src/obs/hostprof.hh"

#include <cassert>
#include <string>
#include <utility>

#include "src/obs/pagestats.hh"
#include "src/obs/span.hh"
#include "src/obs/telemetry.hh"
#include "src/obs/trace.hh"
#include "src/sys/chaos.hh"

namespace griffin::gpu {

Pmc::Pmc(sim::Engine &engine, ic::Network &network, DeviceId self,
         std::vector<mem::Dram *> drams, std::uint64_t page_bytes,
         unsigned max_concurrent)
    : _engine(engine), _network(network), _self(self),
      _drams(std::move(drams)), _pageBytes(page_bytes),
      _maxConcurrent(max_concurrent)
{
    assert(page_bytes > 0);
}

void
Pmc::transferPage(PageId page, DeviceId dst, sim::EventFn done, FaultId fid)
{
    assert(dst < _drams.size() && dst != _self);

    // Every migration attempt enters here, queued or not, so this is
    // the page's migration_start event (commit happens at
    // PageTable::setLocation, abort at the arming side's timeout).
    obs::PageStats::recordActive(obs::PageEvent::MigrationStart, page,
                                 _self, dst, _engine.now());

    if (_maxConcurrent != 0 && _inflight >= _maxConcurrent) {
        ++transfersDeferred;
        _pending.push_back(Pending{page, dst, std::move(done), fid});
        return;
    }
    startTransfer(page, dst, std::move(done), fid);
}

void
Pmc::startTransfer(PageId page, DeviceId dst, sim::EventFn done, FaultId fid)
{
    ++_inflight;
    ++pagesTransferred;
    bytesTransferred += _pageBytes;

    // The DMA stream starts now: end of the fault's transfer_queue
    // stage (zero-length when the PMC is unbounded or uncontended).
    obs::FaultSpans::markActive(fid, obs::Stage::TransferQueue,
                                _engine.now());
    if (fid != invalidFaultId) {
        if (auto *tr = obs::TraceSession::activeFor(obs::CatFault)) {
            tr->flow(obs::CatFault, "pmc" + std::to_string(_self), "fault",
                     _engine.now(), fid,
                     obs::TraceSession::FlowPhase::Step);
        }
    }

    runAttempt(std::make_unique<Xfer>(Xfer{page, Addr(page) * _pageBytes,
                                           dst, fid, 1, _engine.now(),
                                           std::move(done)}));
}

void
Pmc::releaseSlot()
{
    // Release the DMA slot (and start the next queued transfer)
    // before any driver-side completion runs, so a completion that
    // immediately requests another transfer sees a free slot.
    assert(_inflight > 0);
    --_inflight;
    if (!_pending.empty() &&
        (_maxConcurrent == 0 || _inflight < _maxConcurrent)) {
        Pending next = std::move(_pending.front());
        _pending.pop_front();
        startTransfer(next.page, next.dst, std::move(next.done),
                      next.fid);
    }
}

void
Pmc::runAttempt(XferPtr xf)
{
    // Source DRAM read: pages are page-aligned, so use the page base
    // as the address for channel selection.
    const Tick read_done =
        _drams[_self]->access(_engine.now(), xf->base,
                              std::uint32_t(_pageBytes), false);

    // Stream across the fabric once the read completes, then commit
    // into the destination DRAM. An injected failure strikes at
    // stream arrival, before the destination write.
    _engine.scheduleAt(read_done, [this, x = std::move(xf)]() mutable {
        GHPROF_SCOPE("pmc", "read_done");
        // Hoist: the lambda argument moves x, and argument evaluation
        // order is unspecified, so x->dst must be read first.
        const DeviceId dst = x->dst;
        _network.send(
            _self, dst, _pageBytes + ic::MessageSizes::header,
            [this, x = std::move(x)]() mutable {
                GHPROF_SCOPE("pmc", "stream_arrive");
                if (_injector && _injector->failDmaTransfer()) {
                    const auto &cc = _injector->config();
                    if (x->attempt > cc.dmaMaxRetries) {
                        // Retry budget exhausted: abandon the
                        // transfer. Its completion never fires; the
                        // arming side's migration timeout (driver or
                        // executor) is the recovery path.
                        _injector->noteDmaAbandoned();
                        obs::PageStats::recordActive(
                            obs::PageEvent::Recovery, x->page, _self,
                            x->dst, _engine.now());
                        if (auto *tr = obs::TraceSession::activeFor(
                                obs::CatChaos)) {
                            tr->instant(obs::CatChaos,
                                        "pmc" + std::to_string(_self),
                                        "dma_abandoned", _engine.now(),
                                        obs::TraceArgs()
                                            .add("page", x->page)
                                            .add("attempts", x->attempt));
                        }
                        releaseSlot();
                        return;
                    }
                    const Tick backoff = cc.dmaRetryBackoff
                                         << (x->attempt - 1);
                    _injector->noteRetry();
                    _injector->noteRecoveryCycles(backoff);
                    obs::PageStats::recordActive(
                        obs::PageEvent::Recovery, x->page, _self, x->dst,
                        _engine.now());
                    if (auto *tr = obs::TraceSession::activeFor(
                            obs::CatChaos)) {
                        tr->instant(obs::CatChaos,
                                    "pmc" + std::to_string(_self),
                                    "dma_retry", _engine.now(),
                                    obs::TraceArgs()
                                        .add("page", x->page)
                                        .add("attempt", x->attempt)
                                        .add("backoff", backoff));
                    }
                    ++x->attempt;
                    _engine.schedule(
                        backoff, [this, x = std::move(x)]() mutable {
                            GHPROF_SCOPE("chaos", "dma_retry");
                            runAttempt(std::move(x));
                        });
                    return;
                }

                const Tick write_done = _drams[x->dst]->access(
                    _engine.now(), x->base, std::uint32_t(_pageBytes),
                    true);
                _engine.scheduleAt(
                    write_done, [this, x = std::move(x)]() mutable {
                        GHPROF_SCOPE("pmc", "write_commit");
                        obs::transferCommitted(_self, x->dst, x->page,
                                               x->fid, x->begin,
                                               _engine.now());
                        releaseSlot();
                        x->done();
                    });
            });
    });
}

} // namespace griffin::gpu
