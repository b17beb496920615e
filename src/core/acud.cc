#include "src/core/acud.hh"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "src/obs/hostprof.hh"
#include "src/obs/pagestats.hh"
#include "src/obs/trace.hh"
#include "src/sim/log.hh"
#include "src/sys/chaos.hh"

namespace griffin::core {

struct MigrationExecutor::BatchState
{
    std::vector<MigrationCandidate> moves;
    std::size_t remaining = 0;
    bool aborted = false;
    sim::TimerId timer = sim::invalidTimerId;
    std::vector<bool> landed;
    /** The driver's completion; exactly one side moves it out. */
    sim::EventFn allDone;
};

MigrationExecutor::MigrationExecutor(sim::Engine &engine,
                                     ic::Network &network,
                                     mem::PageTable &pt,
                                     xlat::Iommu &iommu,
                                     std::vector<gpu::Gpu *> gpus,
                                     std::vector<gpu::Pmc *> pmcs,
                                     bool use_acud)
    : _engine(engine), _network(network), _pageTable(pt), _iommu(iommu),
      _gpus(std::move(gpus)), _pmcs(std::move(pmcs)), _useAcud(use_acud)
{
}

void
MigrationExecutor::executeBatch(const MigrationBatch &batch,
                                sim::EventFn done)
{
    assert(!batch.moves.empty());
    ++batchesExecuted;

    const DeviceId source = batch.source;
    gpu::Gpu *src_gpu = gpuOf(source);

    // Span the whole episode: drain command -> quiesce -> shootdown ->
    // transfers -> completion notification.
    if (obs::TraceSession::activeFor(obs::CatMigration)) {
        const Tick begin = _engine.now();
        const std::size_t npages = batch.moves.size();
        done = sim::boxed([this, begin, npages, source,
                           done = std::move(done)] {
            if (auto *tr =
                    obs::TraceSession::activeFor(obs::CatMigration)) {
                tr->complete(obs::CatMigration, "executor",
                             "migration_batch", begin, _engine.now(),
                             obs::TraceArgs()
                                 .add("source", source)
                                 .add("pages", npages));
            }
            done();
        });
    }

    // Shared state for the continuation chain: one heap object per
    // batch, captured by pointer everywhere downstream.
    auto state = std::make_shared<BatchState>();
    state->moves = batch.moves;
    state->allDone = std::move(done);
    auto pages = std::make_shared<std::vector<PageId>>();
    pages->reserve(state->moves.size());
    for (const auto &m : state->moves)
        pages->push_back(m.page);
    std::sort(pages->begin(), pages->end());

    // 1. Mark the pages as migrating so the next DPC period does not
    // re-select them. Translations keep being served from the old
    // location until the shootdown — execution is undisturbed while
    // the drain command travels (paper Figure 7's timeline).
    for (const PageId page : *pages)
        _pageTable.info(page).migrationPending = true;

    GLOG(Trace, "executor: batch of " << pages->size()
                << " pages from gpu " << source);

    // 2. Drain command travels to the source GPU.
    _network.send(cpuDeviceId, source, ic::MessageSizes::drainCommand,
                  [this, src_gpu, pages, state, source]() mutable {
        GHPROF_SCOPE("acud", "drain_command");
        auto after_quiesce = [this, src_gpu, pages, state,
                              source]() mutable {
            const bool selective = _useAcud;
            // 4. Selective TLB shootdown and L2/L1 flush of exactly
            // the migrating pages. (The full-flush path already
            // purged all TLBs and caches inside flushForMigration.)
            // From here until each page's transfer completes, the
            // page is unavailable: new translations park.
            for (const PageId page : *pages)
                _iommu.blockPage(page);
            Tick wb_done = _engine.now();
            Tick ack_penalty = 0;
            if (selective) {
                src_gpu->shootdownPages(*pages);
                if (obs::Telemetry::current().pages) {
                    for (const PageId page : *pages) {
                        obs::PageStats::recordActive(
                            obs::PageEvent::Shootdown, page,
                            src_gpu->id(), invalidDeviceId,
                            _engine.now());
                    }
                }
                wb_done = src_gpu->flushCachesForPages(*pages);
                if (_injector) {
                    // Lost-ACK recovery: each lost completion ACK
                    // costs one ACK timeout, then the shootdown is
                    // re-issued (idempotent). Bounded so a hostile
                    // seed cannot wedge the batch.
                    const auto &cc = _injector->config();
                    unsigned reissues = 0;
                    while (reissues < cc.shootdownMaxReissues &&
                           _injector->loseShootdownAck()) {
                        ++reissues;
                        ++shootdownsReissued;
                        _injector->noteRetry();
                        src_gpu->shootdownPages(*pages);
                        ack_penalty += cc.shootdownAckTimeout;
                    }
                    if (ack_penalty > 0) {
                        _injector->noteRecoveryCycles(ack_penalty);
                        if (auto *tr = obs::TraceSession::activeFor(
                                obs::CatChaos)) {
                            tr->instant(obs::CatChaos, "executor",
                                        "shootdown_ack_lost",
                                        _engine.now(),
                                        obs::TraceArgs()
                                            .add("reissues", reissues)
                                            .add("penalty",
                                                 ack_penalty));
                        }
                    }
                }
            }
            const Tick resume_at =
                std::max(wb_done, _engine.now() +
                                      src_gpu->config().shootdownLatency) +
                ack_penalty;
            _engine.scheduleAt(resume_at,
                               [this, src_gpu, state,
                                source]() mutable {
                GHPROF_SCOPE("acud", "resume");
                // 5. Continue: execution restarts before the data
                // moves (paper Figure 7).
                src_gpu->resumeAllCus();
                // 6. Transfers stream out concurrently.
                transferPhase(source, std::move(state));
            });
        };

        if (_useAcud) {
            // 3a. ACUD drain.
            src_gpu->drainForPages(pages, std::move(after_quiesce));
        } else {
            // 3b. Conventional full pipeline flush.
            src_gpu->flushForMigration(std::move(after_quiesce));
        }
    });
}

void
MigrationExecutor::transferPhase(DeviceId source,
                                 std::shared_ptr<BatchState> state)
{
    // Per-page completions and the batch timeout arbitrate through
    // the shared state: exactly one side sends the drain reply.
    state->remaining = state->moves.size();
    state->landed.assign(state->moves.size(), false);
    for (std::size_t i = 0; i < state->moves.size(); ++i) {
        const auto &move = state->moves[i];
        ++pagesMigrated;
        ++migrationsByClass[std::size_t(move.reason)];
        _pmcs[move.from]->transferPage(
            move.page, move.to,
            [this, i, state] {
                if (state->aborted) {
                    // The batch timeout already gave up on this
                    // page and replayed its parked translations
                    // against the old location: the page must not
                    // move anymore.
                    ++lateTransferCompletions;
                    return;
                }
                state->landed[i] = true;
                const auto &move = state->moves[i];
                _pageTable.setLocation(move.page, move.to);
                _iommu.onMigrationDone(move.page);
                if (--state->remaining == 0) {
                    if (state->timer != sim::invalidTimerId)
                        _engine.cancelTimeout(state->timer);
                    // Completion notification back to the driver.
                    _network.send(move.to, cpuDeviceId,
                                  ic::MessageSizes::drainReply,
                                  std::move(state->allDone));
                }
            });
    }
    if (_injector && _injector->config().migrationTimeout > 0) {
        const Tick timeout = _injector->config().migrationTimeout;
        state->timer = _engine.scheduleTimeout(
            timeout,
            [this, source, state, timeout] {
                GHPROF_SCOPE("acud", "batch_timeout");
                if (state->remaining == 0)
                    return;
                // Abort every page still in flight: it stays at
                // its source, the parked translations replay
                // against the unchanged page table, and the DPC
                // may re-select it in a later period.
                state->aborted = true;
                ++batchesAborted;
                std::size_t stuck = 0;
                for (std::size_t i = 0; i < state->moves.size(); ++i) {
                    if (state->landed[i])
                        continue;
                    ++stuck;
                    const auto &move = state->moves[i];
                    mem::PageInfo &pi = _pageTable.info(move.page);
                    pi.migrating = false;
                    pi.migrationPending = false;
                    _injector->noteFallback();
                    _injector->noteMigrationTimeout();
                    obs::PageStats::recordActive(
                        obs::PageEvent::MigrationAbort, move.page,
                        move.from, move.to, _engine.now());
                    obs::PageStats::recordActive(
                        obs::PageEvent::Recovery, move.page,
                        move.from, move.to, _engine.now());
                    _iommu.onMigrationDone(move.page);
                }
                _injector->noteRecoveryCycles(timeout);
                if (auto *tr = obs::TraceSession::activeFor(
                        obs::CatChaos)) {
                    tr->instant(obs::CatChaos, "executor",
                                "batch_timeout", _engine.now(),
                                obs::TraceArgs()
                                    .add("source", source)
                                    .add("stuck", stuck));
                }
                // Unblock the driver-side chain.
                _network.send(source, cpuDeviceId,
                              ic::MessageSizes::drainReply,
                              std::move(state->allDone));
            });
    }
}

} // namespace griffin::core
