#include "src/driver/driver.hh"

#include "src/obs/hostprof.hh"

#include <cassert>
#include <memory>

#include "src/obs/pagestats.hh"
#include "src/obs/span.hh"
#include "src/obs/telemetry.hh"
#include "src/obs/trace.hh"
#include "src/sim/log.hh"
#include "src/sys/chaos.hh"

namespace griffin::driver {

namespace {
/** The driver's trace track. */
const std::string kTrack = "driver";
} // namespace

Driver::Driver(sim::Engine &engine, mem::PageTable &pt, xlat::Iommu &iommu,
               gpu::Pmc &cpu_pmc, const DriverConfig &config)
    : _engine(engine), _pageTable(pt), _iommu(iommu), _cpuPmc(cpu_pmc),
      _config(config)
{
    assert(config.faultBatchSize > 0);
}

void
Driver::onPageFault(DeviceId requester, PageId page, FaultId fid)
{
    ++faultsReceived;
    if (auto *tr = obs::TraceSession::activeFor(obs::CatFault)) {
        tr->instant(obs::CatFault, kTrack, "page_fault", _engine.now(),
                    obs::TraceArgs()
                        .add("gpu", requester)
                        .add("page", page));
    }
    _queue.push_back(Fault{requester, page, _engine.now(), fid});
    maybeStartBatch();
}

void
Driver::maybeStartBatch()
{
    if (_processing || _queue.empty())
        return;

    if (_queue.size() >= _config.faultBatchSize) {
        startBatch();
        return;
    }

    // CPMS waits for the pending page walks to complete before
    // migrating (paper SS III-B) — but when the IOMMU has no walk in
    // flight, nothing further can fault and waiting would only add
    // latency (e.g. when every GPU is already parked on this very
    // page). Service the under-full batch immediately.
    if (_iommu.activeWalks() == 0) {
        startBatch();
        return;
    }

    // Under-full batch: hold it open for the batching window, then
    // service whatever accumulated (CPMS cannot wait forever for
    // walks that will never fault).
    if (!_windowArmed) {
        _windowArmed = true;
        _engine.schedule(_config.faultBatchWindow, [this] {
            GHPROF_SCOPE("driver", "batch_window");
            _windowArmed = false;
            if (!_processing && !_queue.empty())
                startBatch();
        });
    }
}

void
Driver::startBatch()
{
    assert(!_processing && !_queue.empty());
    _processing = true;

    std::vector<Fault> batch;
    while (!_queue.empty() && batch.size() < _config.faultBatchSize) {
        batch.push_back(_queue.front());
        _queue.pop_front();
    }

    ++batchesProcessed;
    ++cpuShootdowns;
    GLOG(Trace, "driver: fault batch of " << batch.size() << " pages");

    const Tick now = _engine.now();
    if (auto *tr = obs::TraceSession::activeFor(obs::CatFault)) {
        // The CPMS batch window: first fault queued -> batch closed.
        tr->complete(obs::CatFault, kTrack, "cpms_batch_window",
                     batch.front().raisedAt, now,
                     obs::TraceArgs().add("pages", batch.size()));
        // The serial service span: interrupt + runlist + CPU flush.
        tr->complete(obs::CatFault, kTrack, "fault_batch_service", now,
                     now + _config.faultServiceLatency +
                         _config.cpuFlushPenalty,
                     obs::TraceArgs().add("pages", batch.size()));
    }
    if (auto *tr = obs::TraceSession::activeFor(obs::CatShootdown)) {
        tr->instant(obs::CatShootdown, kTrack, "cpu_tlb_shootdown", now,
                    obs::TraceArgs().add("pages", batch.size()));
    }

    // The batch closing ends every member's batch-wait stage.
    for (const Fault &fault : batch) {
        obs::FaultSpans::markActive(fault.fid, obs::Stage::BatchWait, now);
        // The CPU flush covering this batch shoots down each member
        // page's translation before it migrates.
        obs::PageStats::recordActive(obs::PageEvent::Shootdown,
                                     fault.page, cpuDeviceId,
                                     fault.requester, now);
        if (fault.fid != invalidFaultId) {
            if (auto *tr = obs::TraceSession::activeFor(obs::CatFault)) {
                tr->flow(obs::CatFault, kTrack, "fault", now, fault.fid,
                         obs::TraceSession::FlowPhase::Step);
            }
        }
    }

    // One driver service pass + one CPU flush covers the whole batch.
    // This is the serial component: the driver cannot take the next
    // batch until the shootdown/flush is done. The page transfers
    // themselves are DMA — they pipeline on the CPU's upstream link
    // while the driver moves on.
    _engine.schedule(_config.faultServiceLatency + _config.cpuFlushPenalty,
                     [this, batch = std::move(batch)] {
        GHPROF_SCOPE("driver", "service_batch");
        for (const Fault &fault : batch) {
            // The serial service pass (interrupt + runlist + CPU
            // shootdown/flush) ends here for every batch member.
            obs::FaultSpans::markActive(fault.fid, obs::Stage::Shootdown,
                                        _engine.now());
            // Shared between the DMA completion and the migration
            // timeout: exactly one of the two commits the outcome.
            struct XferState
            {
                bool completed = false;
                bool aborted = false;
                sim::TimerId timer = sim::invalidTimerId;
            };
            auto state = std::make_shared<XferState>();
            _cpuPmc.transferPage(
                fault.page, fault.requester,
                [this, fault, state] {
                    if (state->aborted) {
                        // The DMA landed after the timeout already
                        // aborted this migration and replied to the
                        // parked requesters: the page must stay where
                        // the replies said it was (CPU, DCA fallback).
                        ++lateDmaCompletions;
                        return;
                    }
                    state->completed = true;
                    if (state->timer != sim::invalidTimerId)
                        _engine.cancelTimeout(state->timer);
                    ++pagesMigratedIn;
                    _pageTable.setLocation(fault.page, fault.requester);
                    if (_config.pinAfterMigration)
                        _pageTable.info(fault.page).pinned = true;
                    obs::faultServiced(_engine.now() - fault.raisedAt);
                    _iommu.onMigrationDone(fault.page);
                },
                fault.fid);
            // Chaos recovery: a migration whose DMA has not completed
            // after the injector's timeout (0 disables) is aborted.
            const Tick timeout =
                _injector ? _injector->config().migrationTimeout : 0;
            if (timeout > 0 && !state->completed) {
                state->timer = _engine.scheduleTimeout(
                    timeout, [this, fault, state] {
                        GHPROF_SCOPE("driver", "migration_timeout");
                        if (state->completed)
                            return;
                        // Abort: unpin, unblock, and degrade the page
                        // to DCA remote access so the parked requests
                        // (and all future ones) are served from CPU
                        // memory instead of re-faulting forever.
                        state->aborted = true;
                        ++migrationTimeouts;
                        _injector->noteFallback();
                        _injector->noteMigrationTimeout();
                        _injector->noteRecoveryCycles(
                            _injector->config().migrationTimeout);
                        mem::PageInfo &pi = _pageTable.info(fault.page);
                        pi.migrating = false;
                        pi.pinned = false;
                        pi.dcaFallback = true;
                        const Tick now = _engine.now();
                        obs::migrationAborted(fault.page, fault.requester,
                                              now - fault.raisedAt, now);
                        _iommu.onMigrationDone(fault.page);
                    });
            }
        }
        _processing = false;
        maybeStartBatch();
    });
}

} // namespace griffin::driver
