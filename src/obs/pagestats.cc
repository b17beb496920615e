#include "src/obs/pagestats.hh"

#include "src/obs/hostprof.hh"

#include <algorithm>

#include "src/sim/engine.hh"

namespace griffin::obs {

const char *
pageEventName(PageEvent event)
{
    switch (event) {
      case PageEvent::FirstTouch:
        return "first_touch";
      case PageEvent::DftmDenial:
        return "dftm_denial";
      case PageEvent::MigrationStart:
        return "migration_start";
      case PageEvent::MigrationCommit:
        return "migration_commit";
      case PageEvent::MigrationAbort:
        return "migration_abort";
      case PageEvent::MigrationDeferred:
        return "migration_deferred";
      case PageEvent::DcaFallback:
        return "dca_fallback";
      case PageEvent::Shootdown:
        return "shootdown";
      case PageEvent::Recovery:
        return "recovery";
    }
    return "unknown";
}

PageStats::PageStats(PageStatsConfig config) : _config(config) {}

PageStats::PageRec &
PageStats::pageOf(PageId page, Tick at)
{
    auto [it, inserted] = _pages.try_emplace(page);
    if (inserted)
        it->second.firstSeen = at;
    return it->second;
}

void
PageStats::record(PageEvent event, PageId page, DeviceId from,
                  DeviceId to, Tick at)
{
    GHPROF_SCOPE("obs", "pagestats");
    ++_events[unsigned(event)];
    PageRec &rec = pageOf(page, at);
    ++rec.events[unsigned(event)];
    if (event == PageEvent::MigrationCommit)
        onCommit(rec, page, from, to, at);
}

void
PageStats::recordNow(PageEvent event, PageId page, DeviceId from,
                     DeviceId to)
{
    const sim::Engine *clock = Telemetry::current().clock;
    record(event, page, from, to, clock ? clock->now() : 0);
}

void
PageStats::onCommit(PageRec &rec, PageId page, DeviceId from,
                    DeviceId to, Tick at)
{
    (void)page;
    ++rec.migrations;

    // Residency timeline: seed with the pre-commit home so the first
    // hop pair reads "left `from` for `to` at `at`".
    if (rec.residency.empty())
        rec.residency.push_back(ResidencyHop{rec.firstSeen, from});
    rec.residency.push_back(ResidencyHop{at, to});
    rec.location = to;

    // Churn: the page returns to a device it previously left, within
    // the window of that departure.
    for (const auto &[dev, left_at] : rec.lastLeft) {
        if (dev == to && at >= left_at &&
            at - left_at <= _config.churnWindow) {
            ++rec.churn;
            ++_churnEvents;
            break;
        }
    }
    // The page just left `from`; remember when for future returns.
    bool found = false;
    for (auto &[dev, left_at] : rec.lastLeft) {
        if (dev == from) {
            left_at = at;
            found = true;
            break;
        }
    }
    if (!found)
        rec.lastLeft.emplace_back(from, at);

    // Inter-migration reuse distance.
    if (rec.committed && at >= rec.lastCommit)
        _reuseDistance.sample(double(at - rec.lastCommit));
    rec.committed = true;
    rec.lastCommit = at;
}

std::uint64_t
PageStats::migrationsOf(PageId page) const
{
    const auto it = _pages.find(page);
    return it == _pages.end() ? 0 : it->second.migrations;
}

std::uint64_t
PageStats::churnOf(PageId page) const
{
    const auto it = _pages.find(page);
    return it == _pages.end() ? 0 : it->second.churn;
}

PageStatsSummary
PageStats::summary() const
{
    PageStatsSummary s;
    s.enabled = true;
    s.churnWindow = _config.churnWindow;
    s.topN = _config.topN;
    s.events = _events;
    s.pagesTracked = _pages.size();
    s.churnEvents = _churnEvents;
    s.reuseDistance = _reuseDistance;

    for (const auto &[page, rec] : _pages) {
        (void)page;
        if (rec.migrations > 0)
            ++s.pagesMigrated;
        if (rec.churn > 0)
            ++s.churnPages;
        s.totalMigrations += rec.migrations;
        s.maxMigrationsOnePage =
            std::max(s.maxMigrationsOnePage, rec.migrations);
    }

    // The top tables: sort page ids (not unordered_map order) so the
    // summary is deterministic for a deterministic run regardless of
    // hash seeding or --jobs.
    std::vector<PageId> ids;
    ids.reserve(_pages.size());
    for (const auto &[page, rec] : _pages) {
        if (rec.migrations > 0)
            ids.push_back(page);
    }

    const auto makeRow = [this](PageId page) {
        const PageRec &rec = _pages.at(page);
        PageStatsSummary::TopPage row;
        row.page = page;
        row.migrations = rec.migrations;
        row.churn = rec.churn;
        row.denials = rec.events[unsigned(PageEvent::DftmDenial)];
        row.lastLocation = rec.location;
        const std::size_t n = std::min(rec.residency.size(),
                                       PageStatsSummary::residencyCap);
        row.residency.assign(rec.residency.begin(),
                             rec.residency.begin() + n);
        return row;
    };

    std::sort(ids.begin(), ids.end(), [this](PageId a, PageId b) {
        const auto ma = _pages.at(a).migrations;
        const auto mb = _pages.at(b).migrations;
        if (ma != mb)
            return ma > mb;
        return a < b;
    });
    for (std::size_t i = 0; i < ids.size() && i < _config.topN; ++i)
        s.hotPages.push_back(makeRow(ids[i]));

    std::sort(ids.begin(), ids.end(), [this](PageId a, PageId b) {
        const auto ca = _pages.at(a).churn;
        const auto cb = _pages.at(b).churn;
        if (ca != cb)
            return ca > cb;
        return a < b;
    });
    for (std::size_t i = 0; i < ids.size() && i < _config.topN; ++i) {
        if (_pages.at(ids[i]).churn == 0)
            break;
        s.thrashingPages.push_back(makeRow(ids[i]));
    }

    return s;
}

} // namespace griffin::obs
