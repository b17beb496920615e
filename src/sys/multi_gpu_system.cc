#include "src/sys/multi_gpu_system.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/trace.hh"
#include "src/sim/log.hh"

namespace griffin::sys {

double
RunResult::maxGpuShare() const
{
    std::uint64_t on_gpus = 0, max_gpu = 0;
    for (std::size_t dev = 1; dev < pagesPerDevice.size(); ++dev) {
        on_gpus += pagesPerDevice[dev];
        max_gpu = std::max(max_gpu, pagesPerDevice[dev]);
    }
    return on_gpus > 0 ? double(max_gpu) / double(on_gpus) : 0.0;
}

MultiGpuSystem::MultiGpuSystem(const SystemConfig &config)
    : _config(config), _engine(config.maxTicks),
      _pageTable(config.gpu.pageShift, config.numDevices()),
      _cpuL2(config.cpuL2), _cpuDram(config.cpuDram),
      _cpuRdma(_cpuL2, _cpuDram)
{
    assert(config.numGpus >= 1);

    if (config.useReferenceQueue)
        _engine.queue().enableReferenceMode();

    // The fault injector comes first so every component can be wired
    // to it as it is built. A disabled chaos config builds no
    // injector and the whole layer stays inert.
    if (config.chaos.enabled())
        _injector = std::make_unique<FaultInjector>(config.chaos);

    _network = std::make_unique<ic::Network>(_engine,
                                             config.numDevices(),
                                             config.link);
    _network->setFaultInjector(_injector.get());
    _iommu = std::make_unique<xlat::Iommu>(_engine, *_network,
                                           _pageTable, config.iommu);
    _iommu->setFaultInjector(_injector.get());

    // GPUs (device ids 1..N).
    for (unsigned g = 0; g < config.numGpus; ++g) {
        _gpus.push_back(std::make_unique<gpu::Gpu>(
            _engine, DeviceId(g + 1), config.gpu, *_network, *_iommu,
            *this, _accesses));
    }

    // Per-device PMCs share the DRAM directory.
    std::vector<mem::Dram *> drams(config.numDevices(), nullptr);
    drams[cpuDeviceId] = &_cpuDram;
    for (unsigned g = 0; g < config.numGpus; ++g)
        drams[g + 1] = &_gpus[g]->dram();
    const std::uint64_t page_bytes =
        std::uint64_t(1) << config.gpu.pageShift;
    for (unsigned dev = 0; dev < config.numDevices(); ++dev) {
        _pmcs.push_back(std::make_unique<gpu::Pmc>(
            _engine, *_network, DeviceId(dev), drams, page_bytes,
            config.pmcMaxConcurrent));
        _pmcs.back()->setFaultInjector(_injector.get());
    }

    // Driver: fault batching per the active policy (CPMS CPU->GPU
    // half uses N_PTW; the baseline services faults one by one).
    driver::DriverConfig dcfg;
    dcfg.cpuFlushPenalty = config.cpuFlushPenalty;
    if (config.policy == PolicyKind::Griffin) {
        dcfg.faultBatchSize = config.griffin.nPtw;
        dcfg.faultBatchWindow = config.griffin.faultBatchWindow;
        dcfg.pinAfterMigration = false;
    } else {
        dcfg.faultBatchSize = 1;
        dcfg.pinAfterMigration = true;
    }
    _driver = std::make_unique<driver::Driver>(_engine, _pageTable,
                                               *_iommu,
                                               *_pmcs[cpuDeviceId], dcfg);
    _driver->setFaultInjector(_injector.get());
    _iommu->setFaultHandler(_driver.get());

    // The policy.
    std::vector<gpu::Gpu *> gpu_ptrs;
    std::vector<gpu::Pmc *> pmc_ptrs;
    for (auto &g : _gpus)
        gpu_ptrs.push_back(g.get());
    for (auto &p : _pmcs)
        pmc_ptrs.push_back(p.get());

    if (config.policy == PolicyKind::Griffin) {
        auto policy = std::make_unique<core::GriffinPolicy>(
            _engine, *_network, _pageTable, *_iommu, gpu_ptrs, pmc_ptrs,
            config.griffin);
        _griffinPolicy = policy.get();
        _griffinPolicy->executor().setFaultInjector(_injector.get());
        _policy = std::move(policy);
    } else {
        _policy = std::make_unique<core::FirstTouchPolicy>();
    }
    _iommu->setPolicy(_policy.get());

    _dispatcher = std::make_unique<gpu::Dispatcher>(
        _engine, gpu_ptrs, config.dispatchLatency);

    // The liveness watchdog: one probe per unit of outstanding work.
    // If the event queue drains while any probe is nonzero, the run
    // lost a wakeup and fails with a diagnostic instead of lying.
    _watchdog = std::make_unique<sim::Watchdog>();
    _watchdog->addProbe("driver", "pendingFaults",
                        [this] { return _driver->pendingFaults(); });
    _watchdog->addProbe("driver", "busy",
                        [this] { return _driver->busy() ? 1 : 0; });
    _watchdog->addProbe("iommu", "activeWalks",
                        [this] { return _iommu->activeWalks(); });
    _watchdog->addProbe("iommu", "parkedRequests",
                        [this] { return _iommu->parkedCount(); });
    for (unsigned dev = 0; dev < config.numDevices(); ++dev) {
        _watchdog->addProbe("pmc" + std::to_string(dev), "queueDepth",
                            [this, dev] { return _pmcs[dev]->queueDepth(); });
    }
    for (unsigned g = 0; g < config.numGpus; ++g) {
        const std::string name = "gpu" + std::to_string(g + 1);
        _watchdog->addProbe(name, "busyCus",
                            [this, g] { return _gpus[g]->busyCus(); });
        _watchdog->addProbe(name, "queuedWorkgroups", [this, g] {
            return _gpus[g]->queuedWorkgroups();
        });
        _watchdog->addProbe(name, "drainActive", [this, g] {
            return _gpus[g]->drainActive() ? 1 : 0;
        });
    }
    _watchdog->addProbe("accesses", "inFlight",
                        [this] { return _accesses.live(); });
    _watchdog->addProbe("spans", "openFaults",
                        [this] { return _spans.openFaults(); });
    _engine.setWatchdog(_watchdog.get());

    // Page-lifecycle and interval telemetry, built only on request so
    // the default configuration records nothing and pays nothing.
    if (config.pageStats.enabled)
        _pageStats = std::make_unique<obs::PageStats>(config.pageStats);
    if (config.timeseriesTick > 0) {
        // Every column differences a run aggregate the system keeps
        // anyway. Link utilization reads the busy cycles summed over
        // every wire (one up + one down per device).
        using gpu::Gpu;
        _timeSeries = std::make_unique<obs::TimeSeries>(
            config.timeseriesTick,
            obs::TimeSeries::Sources{
                .counts = {
                    [this] { return double(_pageTable.migrations()); },
                    [this] { return double(sumGpus(&Gpu::remoteAccesses)); },
                    [this] {
                        return double(_driver->cpuShootdowns +
                                      sumGpus(&Gpu::tlbShootdownEvents));
                    },
                    [this] { return double(_latency.faultLatency.count()); },
                },
                .linkBusy = [this] {
                    double busy = 0.0;
                    for (unsigned dev = 0; dev < _config.numDevices();
                         ++dev) {
                        const auto &lk = _network->link(DeviceId(dev));
                        busy += double(lk.busyCycles[0]) +
                                double(lk.busyCycles[1]);
                    }
                    return busy;
                },
                .wires = _config.numDevices() * 2,
            });
    }
    if (config.hostProf)
        _hostProf = std::make_unique<obs::HostProfiler>();
}

std::uint64_t
MultiGpuSystem::sumGpus(std::uint64_t gpu::Gpu::*counter) const
{
    std::uint64_t sum = 0;
    for (const auto &g : _gpus)
        sum += (*g).*counter;
    return sum;
}

void
MultiGpuSystem::remoteAccess(gpu::AccessId id)
{
    const gpu::Access &a = _accesses[id];
    assert(a.owner != a.requester);
    const std::uint64_t req_bytes = a.isWrite
        ? ic::MessageSizes::dcaWriteRequest
        : ic::MessageSizes::dcaReadRequest;
    _network->send(a.requester, a.owner, req_bytes,
                   [this, id] { serveDca(id); });
}

void
MultiGpuSystem::serveDca(gpu::AccessId id)
{
    GHPROF_SCOPE("sys", "dca_serve");
    gpu::Access &a = _accesses[id];
    gpu::Rdma *rdma = &_cpuRdma;
    if (a.owner == cpuDeviceId) {
        if (_griffinPolicy)
            _griffinPolicy->noteCpuDcaAccess(a.page);
    } else {
        // A GPU owner's ACUD drain waits for the access too: it
        // occupies the page's data phase while it is in the owner's
        // memory hierarchy.
        gpu::Gpu &owner = *_gpus[a.owner - 1];
        a.dataPhase = owner.dataPhase().enter(a.page);
        rdma = &owner.rdma();
    }
    const Tick ready = rdma->serve(_engine.now(), a.vaddr, a.isWrite);

    // Per-line DCA service spans. CatDca is off by default — remote
    // traffic is per-cache-line and would dominate the trace.
    if (obs::TraceSession::activeFor(obs::CatDca)) {
        _engine.scheduleAt(ready, [this, id, begin = _engine.now()] {
            if (auto *tr = obs::TraceSession::activeFor(obs::CatDca)) {
                const gpu::Access &served = _accesses[id];
                tr->complete(obs::CatDca,
                             "rdma" + std::to_string(served.owner),
                             served.isWrite ? "dca_write" : "dca_read",
                             begin, _engine.now(),
                             obs::TraceArgs()
                                 .add("addr", served.vaddr)
                                 .add("from", served.requester));
            }
            replyDca(id);
        });
        return;
    }
    _engine.scheduleAt(ready, [this, id] { replyDca(id); });
}

void
MultiGpuSystem::replyDca(gpu::AccessId id)
{
    GHPROF_SCOPE("rdma", "dca_finish");
    const gpu::Access &a = _accesses[id];
    if (a.owner != cpuDeviceId)
        _gpus[a.owner - 1]->dataPhase().leave(a.dataPhase);
    const std::uint64_t reply_bytes = a.isWrite
        ? ic::MessageSizes::dcaWriteAck
        : ic::MessageSizes::dcaReadReply;
    _network->send(a.owner, a.requester, reply_bytes,
                   [this, id] { finishDca(id); });
}

void
MultiGpuSystem::finishDca(gpu::AccessId id)
{
    GHPROF_SCOPE("sys", "dca_finish");
    const gpu::Access a = _accesses.take(id);
    if (auto *lat = obs::Telemetry::current().latency)
        lat->remoteAccessLatency.sample(double(_engine.now() - a.begin));
    a.done();
}

void
MultiGpuSystem::setAccessProbe(gpu::Gpu::AccessProbe probe)
{
    for (auto &g : _gpus)
        g->setAccessProbe(probe);
}

void
MultiGpuSystem::registerProbes(obs::Sampler &sampler)
{
    for (unsigned dev = 0; dev < _config.numDevices(); ++dev) {
        const std::string name = dev == cpuDeviceId
            ? std::string("pages.cpu")
            : "pages.gpu" + std::to_string(dev);
        sampler.add(name, [this, dev] {
            return double(_pageTable.residentPages(DeviceId(dev)));
        });
    }

    // Link utilization: busy fraction of each wire since the previous
    // sample (delta-based, so the probes are stateful).
    for (unsigned dev = 0; dev < _config.numDevices(); ++dev) {
        for (unsigned dir = 0; dir < 2; ++dir) {
            const std::string name = "link" + std::to_string(dev) +
                                     (dir == 0 ? ".up" : ".down");
            sampler.add(name, [this, dev, dir, prev_busy = Tick(0),
                               prev_tick = Tick(0)]() mutable {
                const Tick busy =
                    Tick(_network->link(DeviceId(dev)).busyCycles[dir]);
                const Tick now = _engine.now();
                const double util = now > prev_tick
                    ? double(busy - prev_busy) / double(now - prev_tick)
                    : 0.0;
                prev_busy = busy;
                prev_tick = now;
                return util;
            });
        }
    }

    sampler.add("faults.pending",
                [this] { return double(_driver->pendingFaults()); });
    sampler.add("iommu.activeWalks",
                [this] { return double(_iommu->activeWalks()); });
    sampler.add("iommu.walkerOccupancy", [this] {
        return double(_iommu->busyWalkers()) /
               double(_iommu->config().numWalkers);
    });
    for (unsigned g = 0; g < numGpus(); ++g) {
        sampler.add("gpu" + std::to_string(g + 1) + ".busyCus",
                    [this, g] { return double(_gpus[g]->busyCus()); });
    }
    // Transfer-queue depth per PMC; device 0 is the CPU-side PMC the
    // driver funnels every CPU->GPU migration through.
    for (unsigned dev = 0; dev < _config.numDevices(); ++dev) {
        sampler.add("pmc" + std::to_string(dev) + ".queueDepth",
                    [this, dev] { return double(_pmcs[dev]->queueDepth()); });
    }
}

RunResult
MultiGpuSystem::run(wl::Workload &workload)
{
    if (_ran) {
        // A second run would silently reuse page tables, TLBs and
        // stats from the first — refuse instead of producing corrupt
        // results.
        throw std::logic_error(
            "griffin: a MultiGpuSystem instance runs exactly one "
            "workload; build a new system for each run");
    }
    _ran = true;

    // Install this run's sinks and clock over the thread's telemetry
    // slots; the trace slot stays whatever the caller attached. The
    // scope restores the previous set even if the watchdog throws.
    const obs::Telemetry::Scope telemetry({
        .latency = &_latency,
        .spans = &_spans,
        .pages = _pageStats.get(),
        .series = _timeSeries.get(),
        .prof = _hostProf.get(),
        .clock = &_engine,
    });
    GLOG(Info, "run: " << workload.name() << " under "
                       << policyName(_config.policy));
    if (_hostProf)
        _hostProf->startTimer();
    if (_timeSeries)
        _timeSeries->start(_engine);

    _policy->onSystemStart();

    _engine.schedule(0, [this, &workload] {
        GHPROF_SCOPE("sys", "kernel_launch");
        launchKernel(workload, 0);
    });

    // While injecting faults, cross-check the system's invariants
    // periodically so a recovery bug is caught near where it happened
    // rather than at the end of the run.
    std::uint64_t audit_hook = 0;
    if (_injector && _config.chaos.auditPeriod > 0) {
        audit_hook = _engine.addPeriodicHook(
            _config.chaos.auditPeriod,
            [this](Tick) { _auditViolations += auditInvariants(); });
    }

    _engine.run();

    if (audit_hook != 0)
        _engine.removePeriodicHook(audit_hook);

    // The queue drained: nothing may be left behind. (A requestStop()
    // legitimately leaves work outstanding, so skip the check then.)
    if (!_engine.stopRequested())
        _watchdog->checkQuiesced(_engine.now());

    // Final audit, chaos or not — a quiesced system must be
    // consistent.
    _auditViolations += auditInvariants();

    // Close the time series' final partial interval and build its rows
    // before the results snapshot them.
    if (_timeSeries)
        _timeSeries->stop();

    // Freeze the host wall clock at end-of-sim so result collection
    // and report writing don't inflate the measured run time.
    if (_hostProf)
        _hostProf->stopTimer();

    RunResult result = collectResults();
    result.seed = workload.config().seed;
    return result;
}

void
MultiGpuSystem::launchKernel(wl::Workload &workload, unsigned k)
{
    // The kernels run back to back: each one's completion launches
    // the next, and the last one ends the policy's run.
    if (k >= workload.numKernels()) {
        _policy->onSystemStop();
        return;
    }
    wl::KernelLaunch kernel = workload.makeKernel(k);
    _opsSubmitted += kernel.totalOps();
    _dispatcher->launchKernel(std::move(kernel), [this, &workload, k] {
        launchKernel(workload, k + 1);
    });
}

std::uint64_t
MultiGpuSystem::auditInvariants()
{
    std::uint64_t violations = 0;
    const auto flag = [&violations](const std::string &what) {
        ++violations;
        GLOG(Error, "audit: " << what);
    };

    // GPU TLBs may only cache device-local translations, and a cached
    // entry must agree with the page table once no migration of the
    // page is in flight.
    const auto check_gpu_tlb = [&](const xlat::Tlb &tlb,
                                   const std::string &name,
                                   DeviceId dev) {
        tlb.forEachValid([&](PageId page, DeviceId loc) {
            if (loc != dev) {
                flag(name + " caches remote translation for page " +
                     std::to_string(page));
                return;
            }
            const mem::PageInfo &pi = _pageTable.info(page);
            if (!pi.migrating && !pi.migrationPending &&
                pi.location != loc) {
                flag(name + " holds stale entry for page " +
                     std::to_string(page) + " (cached " +
                     std::to_string(loc) + ", actual " +
                     std::to_string(pi.location) + ")");
            }
        });
    };
    for (unsigned g = 0; g < numGpus(); ++g) {
        const DeviceId dev = DeviceId(g + 1);
        const std::string name = "gpu" + std::to_string(dev);
        check_gpu_tlb(_gpus[g]->l2Tlb(), name + ".l2Tlb", dev);
        for (unsigned cu = 0; cu < _gpus[g]->numCus(); ++cu) {
            check_gpu_tlb(_gpus[g]->l1Tlb(cu),
                          name + ".l1Tlb" + std::to_string(cu), dev);
        }
    }

    // The IOTLB must agree with the page table for stable pages.
    // (CPU-resident entries are legal only under a DFTM lease, which
    // also keeps them coherent: the driver purges on migration.)
    _iommu->iotlb().forEachValid([&](PageId page, DeviceId loc) {
        const mem::PageInfo &pi = _pageTable.info(page);
        if (!pi.migrating && !pi.migrationPending && pi.location != loc) {
            flag("iotlb holds stale entry for page " +
                 std::to_string(page) + " (cached " +
                 std::to_string(loc) + ", actual " +
                 std::to_string(pi.location) + ")");
        }
    });

    // Pin and fallback state must match residency.
    for (const auto &[page, pi] : _pageTable.pages()) {
        if (pi.pinned && pi.location == cpuDeviceId)
            flag("pinned page " + std::to_string(page) +
                 " is CPU-resident");
        if (pi.dcaFallback && pi.location != cpuDeviceId)
            flag("dca-fallback page " + std::to_string(page) +
                 " migrated to device " + std::to_string(pi.location));
        if (pi.dcaFallback && pi.pinned)
            flag("dca-fallback page " + std::to_string(page) +
                 " is pinned");
    }

    // Per-device residency counters must sum to the page population.
    std::uint64_t resident = 0;
    for (unsigned dev = 0; dev < _config.numDevices(); ++dev)
        resident += _pageTable.residentPages(DeviceId(dev));
    if (resident != _pageTable.totalPages()) {
        flag("residency counters sum to " + std::to_string(resident) +
             " but the table holds " +
             std::to_string(_pageTable.totalPages()) + " pages");
    }

    return violations;
}

RunResult
MultiGpuSystem::collectResults()
{
    RunResult result;
    result.cycles = _engine.now();
    result.opsSubmitted = _opsSubmitted;

    result.pagesPerDevice.reserve(_config.numDevices());
    for (unsigned dev = 0; dev < _config.numDevices(); ++dev)
        result.pagesPerDevice.push_back(_pageTable.residentPages(dev));

    result.cpuShootdowns = _driver->cpuShootdowns;
    result.pagesMigratedFromCpu = _driver->pagesMigratedIn;

    result.gpuShootdowns = sumGpus(&gpu::Gpu::tlbShootdownEvents);
    result.localAccesses = sumGpus(&gpu::Gpu::localAccesses);
    result.remoteAccesses = sumGpus(&gpu::Gpu::remoteAccesses);
    if (_griffinPolicy)
        result.pagesMigratedInterGpu =
            _griffinPolicy->executor().pagesMigrated;

    // Full stat dump.
    sim::StatSet &st = result.stats;
    st.set("sim.cycles", double(result.cycles));
    st.set("sim.events", double(_engine.eventsExecuted()));
    st.set("driver.faults", double(_driver->faultsReceived));
    st.set("driver.batches", double(_driver->batchesProcessed));
    st.set("driver.cpuShootdowns", double(_driver->cpuShootdowns));
    st.set("driver.pagesMigratedIn", double(_driver->pagesMigratedIn));
    st.set("iommu.requests", double(_iommu->requests));
    st.set("iommu.walks", double(_iommu->walks));
    st.set("iommu.iotlbHits", double(_iommu->iotlbHits));
    st.set("iommu.faults", double(_iommu->faultsRaised));
    st.set("iommu.dcaRedirects", double(_iommu->dcaRedirects));
    st.set("iommu.walksStalled", double(_iommu->walksStalled));
    st.set("iommu.fallbackRedirects",
           double(_iommu->fallbackRedirects));
    st.set("pageTable.migrations", double(_pageTable.migrations()));
    st.set("pageTable.totalPages", double(_pageTable.totalPages()));
    st.set("network.messages", double(_network->messagesDelivered));

    for (unsigned dev = 0; dev < _config.numDevices(); ++dev) {
        const auto &lk = _network->link(DeviceId(dev));
        const std::string p = "link" + std::to_string(dev) + ".";
        st.set(p + "upBytes", double(lk.bytesSent[0]));
        st.set(p + "downBytes", double(lk.bytesSent[1]));
        st.set(p + "upBusyCycles", double(lk.busyCycles[0]));
        st.set(p + "downBusyCycles", double(lk.busyCycles[1]));
    }

    result.gpuOps.resize(numGpus());
    for (unsigned g = 0; g < numGpus(); ++g) {
        auto &gp = *_gpus[g];
        const std::string p = "gpu" + std::to_string(g + 1) + ".";
        st.set(p + "localAccesses", double(gp.localAccesses));
        st.set(p + "remoteAccesses", double(gp.remoteAccesses));
        st.set(p + "xlatRequests", double(gp.xlatRequestsSent));
        st.set(p + "shootdownEvents", double(gp.tlbShootdownEvents));
        st.set(p + "shootdownEntries", double(gp.tlbEntriesShotDown));
        st.set(p + "drains", double(gp.drains));
        st.set(p + "fullFlushes", double(gp.fullFlushes));
        st.set(p + "workgroups", double(gp.workgroupsExecuted));
        st.set(p + "pausedCycles", double(gp.pausedCycles));
        RunResult::GpuOps &ops = result.gpuOps[g];
        for (unsigned cu = 0; cu < gp.numCus(); ++cu) {
            ops.issued += gp.cu(cu).opsIssued;
            ops.completed += gp.cu(cu).opsCompleted;
            ops.discarded += gp.cu(cu).opsDiscarded;
        }
        st.set(p + "opsDiscarded", double(ops.discarded));
        st.set(p + "opsIssued", double(ops.issued));
        st.set(p + "l2Hits", double(gp.l2().hits));
        st.set(p + "l2Misses", double(gp.l2().misses));
        st.set(p + "residentPages",
               double(_pageTable.residentPages(DeviceId(g + 1))));
        st.set(p + "rdmaReads", double(gp.rdma().readsServed));
        st.set(p + "rdmaWrites", double(gp.rdma().writesServed));
    }

    if (_griffinPolicy) {
        const auto &dftm = _griffinPolicy->dftm();
        st.set("griffin.dftm.denials", double(dftm.firstTouchDenials));
        st.set("griffin.dftm.firstTouch",
               double(dftm.firstTouchMigrations));
        st.set("griffin.dftm.secondTouch",
               double(dftm.secondTouchMigrations));
        st.set("griffin.dftm.leaseRenewals",
               double(dftm.leaseRenewals));
        st.set("griffin.periods", double(_griffinPolicy->periodsRun));
        const auto &ex = _griffinPolicy->executor();
        st.set("griffin.interGpuMigrations", double(ex.pagesMigrated));
        st.set("griffin.migrationBatches", double(ex.batchesExecuted));
        const auto &dpc = _griffinPolicy->dpc();
        st.set("griffin.dpc.candidates", double(dpc.candidatesEmitted));
        for (int c = 0; c < 5; ++c) {
            st.set(std::string("griffin.dpc.class.") +
                       core::pageClassName(core::PageClass(c)),
                   double(dpc.classCounts[c]));
        }
    }

    if (_pageStats) {
        result.pageStats = _pageStats->summary();
        st.set("pages.tracked", double(result.pageStats.pagesTracked));
        st.set("pages.migrationCommits",
               double(result.pageStats.totalMigrations));
        st.set("pages.churnEvents",
               double(result.pageStats.churnEvents));
        st.set("pages.churnPages", double(result.pageStats.churnPages));
    }
    if (_timeSeries)
        result.timeseries = _timeSeries->summary();
    // Host times are nondeterministic by nature, so the profile stays
    // out of StatSet (whose counters must be byte-identical across
    // --jobs=N); the report serializes it in its own marked section.
    if (_hostProf)
        result.hostProfile = _hostProf->profile();

    result.latency = _latency;
    result.faultBreakdown = _spans.criticalPath();
    result.faultSpansOpen = _spans.openFaults();
    st.set("spans.completed", double(_spans.criticalPath().faults()));
    st.set("spans.open", double(result.faultSpansOpen));
    st.set("pmc0.transfersDeferred",
           double(_pmcs[cpuDeviceId]->transfersDeferred));

    result.auditViolations = _auditViolations;
    st.set("audit.violations", double(_auditViolations));

    if (_injector) {
        const FaultInjector::Counters &c = _injector->counters;
        result.chaosInjected = c.injected;
        result.chaosRetries = c.retries;
        result.chaosFallbacks = c.fallbacks;
        result.chaosRecoveryCycles = c.recoveryCycles;
        st.set("chaos.injected", double(c.injected));
        st.set("chaos.retries", double(c.retries));
        st.set("chaos.fallbacks", double(c.fallbacks));
        st.set("chaos.recoveryCycles", double(c.recoveryCycles));
        st.set("chaos.linkFaults", double(c.linkFaults));
        st.set("chaos.linkDegrades", double(c.linkDegrades));
        st.set("chaos.dmaFaults", double(c.dmaFaults));
        st.set("chaos.acksLost", double(c.acksLost));
        st.set("chaos.walkerStalls", double(c.walkerStalls));
        st.set("chaos.dmaAbandoned", double(c.dmaAbandoned));
        st.set("chaos.migrationTimeouts", double(c.migrationTimeouts));
        st.set("chaos.messagesNacked",
               double(_network->messagesNacked));
        st.set("chaos.driverMigrationTimeouts",
               double(_driver->migrationTimeouts));
        st.set("chaos.lateDmaCompletions",
               double(_driver->lateDmaCompletions));
        if (_griffinPolicy) {
            const auto &ex = _griffinPolicy->executor();
            st.set("chaos.shootdownsReissued",
                   double(ex.shootdownsReissued));
            st.set("chaos.batchesAborted", double(ex.batchesAborted));
            st.set("chaos.lateTransferCompletions",
                   double(ex.lateTransferCompletions));
        }
    }

    return result;
}

} // namespace griffin::sys
