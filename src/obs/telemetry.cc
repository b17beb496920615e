#include "src/obs/telemetry.hh"

#include <string>

#include "src/obs/pagestats.hh"
#include "src/obs/span.hh"
#include "src/obs/timeseries.hh"
#include "src/obs/trace.hh"

namespace griffin::obs {

thread_local constinit Telemetry Telemetry::s_current{};

Telemetry::Scope::Scope(const Telemetry &slots) : _saved(s_current)
{
    const auto install = [](auto *&slot, auto *mine) {
        if (mine)
            slot = mine;
    };
    install(s_current.trace, slots.trace);
    install(s_current.latency, slots.latency);
    install(s_current.spans, slots.spans);
    install(s_current.pages, slots.pages);
    install(s_current.series, slots.series);
    install(s_current.prof, slots.prof);
    install(s_current.clock, slots.clock);
}

namespace {
const std::string kIommuTrack = "iommu";
const std::string kDriverTrack = "driver";
} // namespace

FaultId
faultRaised(DeviceId gpu, PageId page, Tick origin, Tick walk_start,
            Tick walk_end, Tick now)
{
    const Telemetry &t = Telemetry::current();
    FaultId fid = invalidFaultId;
    if (FaultSpans *fs = t.spans) {
        fid = fs->beginFault(gpu, page, origin);
        fs->mark(fid, Stage::WalkQueue, walk_start);
        fs->mark(fid, Stage::Walk, walk_end);
        fs->mark(fid, Stage::Policy, now);
    }
    if (auto *tr = TraceSession::activeFor(CatFault)) {
        tr->instant(CatFault, kIommuTrack, "fault_raised", now,
                    TraceArgs().add("gpu", gpu).add("page", page));
        if (fid != invalidFaultId) {
            tr->flow(CatFault, kIommuTrack, "fault", now, fid,
                     TraceSession::FlowPhase::Begin);
        }
    }
    return fid;
}

void
faultResumed(FaultId fid, DeviceId gpu, Tick now)
{
    FaultSpans::completeActive(fid, now);
    if (auto *tr = TraceSession::activeFor(CatFault)) {
        const std::string track = "gpu" + std::to_string(gpu);
        tr->instant(CatFault, track, "fault_resume", now,
                    TraceArgs().add("fault", fid));
        tr->flow(CatFault, track, "fault", now, fid,
                 TraceSession::FlowPhase::End);
    }
}

void
faultServiced(Tick latency)
{
    const Telemetry &t = Telemetry::current();
    if (t.latency)
        t.latency->faultLatency.sample(double(latency));
    if (t.series)
        t.series->fault(double(latency));
}

void
migrationAborted(PageId page, DeviceId gpu, Tick latency, Tick now)
{
    if (PageStats *ps = Telemetry::current().pages) {
        ps->record(PageEvent::MigrationAbort, page, cpuDeviceId, gpu, now);
        ps->record(PageEvent::DcaFallback, page, cpuDeviceId, gpu, now);
        ps->record(PageEvent::Recovery, page, cpuDeviceId, gpu, now);
    }
    faultServiced(latency);
    if (auto *tr = TraceSession::activeFor(CatChaos)) {
        tr->instant(CatChaos, kDriverTrack, "migration_timeout", now,
                    TraceArgs().add("page", page).add("gpu", gpu));
    }
}

void
transferCommitted(DeviceId src, DeviceId dst, PageId page, FaultId fid,
                  Tick begin, Tick end)
{
    if (LatencyHistograms *lat = Telemetry::current().latency) {
        auto &hist = src == cpuDeviceId ? lat->cpuMigrationLatency
                                        : lat->interGpuMigrationLatency;
        hist.sample(double(end - begin));
    }
    if (auto *tr = TraceSession::activeFor(CatMigration)) {
        tr->complete(CatMigration, "pmc" + std::to_string(src),
                     "migrate_page", begin, end,
                     TraceArgs().add("page", page).add("dst", dst));
    }
    FaultSpans::markActive(fid, Stage::Transfer, end);
}

void
pageCommitted(PageId page, DeviceId from, DeviceId to)
{
    PageStats::recordActiveNow(PageEvent::MigrationCommit, page, from, to);
}

} // namespace griffin::obs
