#include "src/core/griffin_policy.hh"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "src/obs/hostprof.hh"
#include "src/obs/pagestats.hh"
#include "src/obs/trace.hh"
#include "src/sim/log.hh"

namespace griffin::core {

namespace {
/** The policy engine's trace track. */
const std::string kTrack = "policy";
} // namespace

GriffinPolicy::GriffinPolicy(sim::Engine &engine, ic::Network &network,
                             mem::PageTable &pt, xlat::Iommu &iommu,
                             std::vector<gpu::Gpu *> gpus,
                             std::vector<gpu::Pmc *> pmcs,
                             const GriffinConfig &config)
    : _engine(engine), _network(network), _pageTable(pt), _iommu(iommu),
      _gpus(std::move(gpus)), _config(config),
      _dftm(config.dftmLeaseGap, config.dftmLeaseCap),
      _dpc(unsigned(_gpus.size()), config, &engine),
      _cpms(config.maxPagesPerPeriod, config.maxSourceGpusPerPeriod),
      _executor(engine, network, pt, iommu, _gpus, std::move(pmcs),
                config.useAcud)
{
}

CpuAccessDecision
GriffinPolicy::onCpuResidentAccess(DeviceId requester, PageId page,
                                   mem::PageTable &pt)
{
    if (!_config.enableDftm) {
        // DFTM ablated: plain first-touch demand paging.
        pt.info(page).touched = true;
        obs::PageStats::recordActive(obs::PageEvent::FirstTouch, page,
                                     cpuDeviceId, requester,
                                     _engine.now());
        return CpuAccessDecision{true};
    }
    const auto decision =
        _dftm.decide(requester, page, pt, _engine.now());
    if (!decision.migrate) {
        // Denied: let the first sweep stream cheaply through the
        // IOTLB. The lease expiry sweep drops the entry again.
        _iommu.cacheCpuResident(page);
    }
    return decision;
}

void
GriffinPolicy::onSystemStart()
{
    _running = true;
    if (!_config.enableInterGpuMigration)
        return;
    for (gpu::Gpu *g : _gpus)
        g->enableAccessCounting();
    schedulePeriod();
}

void
GriffinPolicy::onSystemStop()
{
    _running = false;
}

void
GriffinPolicy::setPeriodProbe(PeriodProbe probe,
                              std::vector<PageId> only_pages)
{
    _probe = std::move(probe);
    _probePages = std::move(only_pages);
    std::sort(_probePages.begin(), _probePages.end());
}

void
GriffinPolicy::schedulePeriod()
{
    _engine.schedule(_config.tAc, [this] {
        GHPROF_SCOPE("policy", "period");
        if (!_running)
            return;
        runPeriod();
        schedulePeriod();
    });
}

void
GriffinPolicy::runPeriod()
{
    ++periodsRun;
    if (auto *tr = obs::TraceSession::activeFor(obs::CatPolicy)) {
        tr->instant(obs::CatPolicy, kTrack, "collect_period",
                    _engine.now(),
                    obs::TraceArgs().add("period", periodsRun));
    }

    // Expire DFTM denial leases: purge the IOTLB entry so the next
    // touch of the page faults into the policy (the "second touch").
    if (_config.enableDftm) {
        _dftm.expireLeases(_engine.now(), [this](PageId page) {
            _iommu.invalidateIotlb(page);
        });
    }

    // The driver asks every GPU for its access counters; each GPU
    // answers with the paper's 110-byte count message. The DPC runs
    // once every reply has landed.
    auto outstanding = std::make_shared<std::size_t>(_gpus.size());
    for (std::size_t i = 0; i < _gpus.size(); ++i) {
        gpu::Gpu *g = _gpus[i];
        _network.send(cpuDeviceId, g->id(),
                      ic::MessageSizes::accessCountRequest,
                      [this, g, outstanding] {
            GHPROF_SCOPE("policy", "count_request");
            auto counts = std::make_shared<std::vector<gpu::PageCount>>(
                g->collectAccessCounts());
            _network.send(g->id(), cpuDeviceId,
                          ic::MessageSizes::accessCountReply,
                          [this, g, counts, outstanding] {
                GHPROF_SCOPE("policy", "count_reply");
                _dpc.addCounts(g->id(), *counts);
                if (--*outstanding == 0)
                    onCountsCollected();
            });
        });
    }
}

void
GriffinPolicy::onCountsCollected()
{
    std::vector<MigrationCandidate> candidates =
        _dpc.endPeriod(_pageTable);

    if (_probe) {
        if (_probePages.empty()) {
            // Probing everything is only sensible in small tests.
            for (const auto &cand : candidates)
                _probe(_engine.now(), cand.page,
                       _dpc.filteredCounts(cand.page), cand.from);
        } else {
            for (const PageId page : _probePages) {
                _probe(_engine.now(), page, _dpc.filteredCounts(page),
                       _pageTable.locationOf(page));
            }
        }
    }

    if (candidates.empty())
        return;

    // CPMS paces the drains: migration phases run every
    // migrationInterval collection periods, not every period.
    if (_config.migrationInterval > 1 &&
        periodsRun % _config.migrationInterval != 0) {
        return;
    }

    if (_migrationInFlight) {
        // CPMS paces migrations: one phase at a time keeps the page
        // ping-pong and drain pressure bounded.
        return;
    }

    std::vector<MigrationBatch> batches =
        _cpms.schedule(candidates, _engine.now());
    if (batches.empty())
        return;

    _migrationInFlight = true;
    const Tick phase_begin = _engine.now();
    std::size_t phase_pages = 0;
    for (const auto &batch : batches)
        phase_pages += batch.moves.size();
    const std::size_t num_batches = batches.size();
    auto remaining = std::make_shared<std::size_t>(batches.size());
    for (auto &batch : batches) {
        GLOG(Trace, "griffin: migration batch from gpu " << batch.source
                    << " (" << batch.moves.size() << " pages)");
        _executor.executeBatch(batch, [this, remaining, phase_begin,
                                       num_batches, phase_pages] {
            GHPROF_SCOPE("policy", "batch_done");
            if (--*remaining == 0) {
                _migrationInFlight = false;
                if (auto *tr = obs::TraceSession::activeFor(
                        obs::CatPolicy)) {
                    tr->complete(obs::CatPolicy, kTrack,
                                 "migration_phase", phase_begin,
                                 _engine.now(),
                                 obs::TraceArgs()
                                     .add("batches", num_batches)
                                     .add("pages", phase_pages));
                }
            }
        });
    }
}

} // namespace griffin::core
