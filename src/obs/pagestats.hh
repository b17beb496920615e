/**
 * @file
 * Per-page lifecycle telemetry: a category-gated, zero-cost-when-off
 * recorder of every event that matters to a page's migration history.
 *
 * Griffin's whole argument is about *which pages move, when, and how
 * often* — DFTM exists to suppress migration ping-pong and shootdown
 * storms — so run-level aggregates alone cannot answer "which pages
 * thrashed?". The instrumented components (driver, DFTM, CPMS, the
 * Griffin policy, the PMCs, the ACUD executor and the page table's
 * commit point) record lifecycle events against a PageId through the
 * `pages` slot of the thread's telemetry set (obs/telemetry.hh); from
 * the raw ledger the recorder derives per-page migration counts,
 * churn/ping-pong detection, inter-migration reuse distances,
 * residency timelines and top-N hot/thrashing page tables.
 *
 * Churn definition: a MigrationCommit is a *churn event* when it
 * returns the page to a device the page previously resided on, within
 * `churnWindow` ticks of the moment the page last *left* that device.
 * A page with at least one churn event is a *churn page*. With an
 * infinite window this is exactly "the page ping-ponged"; the window
 * keeps legitimate long-term rebalancing (a page coming home a whole
 * phase later) out of the thrash count.
 *
 * Cost model: nothing is recorded when the calling thread's pages
 * slot is empty — every instrumentation site is a single pointer
 * null-check, so standalone component tests and `--page-stats`-off
 * bench runs pay nothing and their outputs stay bit-identical. When
 * on, each event is O(1) amortized (one hash-map lookup plus counter
 * bumps; a commit additionally scans the page's tiny device-history
 * list). Every thread has its own slot set, so concurrent sweep runs
 * (sys::SweepRunner) each record into their own instance and
 * `--jobs=N` output merges deterministically.
 */

#ifndef GRIFFIN_OBS_PAGESTATS_HH
#define GRIFFIN_OBS_PAGESTATS_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/telemetry.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace griffin::obs {

/**
 * The page-lifecycle event taxonomy. `from`/`to` carry the devices
 * involved where meaningful (invalidDeviceId otherwise):
 *
 *  - FirstTouch:        a GPU touched a CPU-resident page for the
 *                       first time (to = the touching GPU);
 *  - DftmDenial:        DFTM denied that first touch and opened a
 *                       denial lease (the page serves via DCA);
 *  - MigrationStart:    a PMC accepted the page for transfer
 *                       (from = source device, to = destination);
 *  - MigrationCommit:   the page table moved the page (the single
 *                       commit point, mem::PageTable::setLocation);
 *  - MigrationAbort:    a recovery timeout gave up on an in-flight
 *                       migration; the page stays at `from`;
 *  - MigrationDeferred: the DPC selected the page but CPMS's
 *                       per-phase caps pushed it to a later phase;
 *  - DcaFallback:       the page was degraded to DCA-forever after a
 *                       driver-side migration timeout;
 *  - Shootdown:         the page's translation was shot down
 *                       (from = the device flushing its TLBs);
 *  - Recovery:          a chaos-triggered recovery action touched the
 *                       page (DMA retry/abandon, timeout cleanup).
 */
enum class PageEvent : unsigned
{
    FirstTouch = 0,
    DftmDenial,
    MigrationStart,
    MigrationCommit,
    MigrationAbort,
    MigrationDeferred,
    DcaFallback,
    Shootdown,
    Recovery,
};

inline constexpr unsigned numPageEvents = 9;

/** Snake-case event name used in reports ("first_touch", ...). */
const char *pageEventName(PageEvent event);

/** Knobs for the recorder (SystemConfig::pageStats). */
struct PageStatsConfig
{
    /** Master switch: off = no sink is built, nothing is recorded. */
    bool enabled = false;

    /**
     * A commit that returns a page to a prior device counts as churn
     * only when it lands within this many ticks of the page leaving
     * that device.
     */
    Tick churnWindow = 1000000;

    /** Rows kept in the hot/thrashing page tables of the report. */
    unsigned topN = 16;
};

/** One hop of a page's residency timeline. */
struct ResidencyHop
{
    Tick at;
    DeviceId device;

    bool
    operator==(const ResidencyHop &o) const
    {
        return at == o.at && device == o.device;
    }
};

/**
 * The copyable end-of-run digest RunResult carries out of the system
 * and the JSON report serializes as "page_stats". Per-page detail is
 * capped at the configured top-N so reports stay bounded regardless
 * of working-set size.
 */
struct PageStatsSummary
{
    bool enabled = false;
    Tick churnWindow = 0;
    unsigned topN = 0;

    /** Run-wide event totals, indexed by PageEvent. */
    std::array<std::uint64_t, numPageEvents> events{};

    std::uint64_t pagesTracked = 0;  ///< pages with >= 1 event
    std::uint64_t pagesMigrated = 0; ///< pages with >= 1 commit
    std::uint64_t totalMigrations = 0;
    std::uint64_t churnEvents = 0;
    std::uint64_t churnPages = 0;
    std::uint64_t maxMigrationsOnePage = 0;

    /** Ticks between consecutive commits of the same page. */
    sim::Histogram reuseDistance{5000.0, 400};

    /** One row of the hot/thrashing tables. */
    struct TopPage
    {
        PageId page = 0;
        std::uint64_t migrations = 0;
        std::uint64_t churn = 0;
        std::uint64_t denials = 0;
        DeviceId lastLocation = invalidDeviceId;
        /** Residency timeline (capped; see residencyCap). */
        std::vector<ResidencyHop> residency;
    };

    /** Most-migrated pages, count-desc then page-asc. */
    std::vector<TopPage> hotPages;
    /** Pages with churn > 0, churn-desc then page-asc. */
    std::vector<TopPage> thrashingPages;

    /** Residency hops kept per top page in the summary. */
    static constexpr std::size_t residencyCap = 64;
};

/**
 * The recorder. Owned by MultiGpuSystem (built only when
 * PageStatsConfig::enabled), installed in the pages slot for the
 * duration of run().
 */
class PageStats
{
  public:
    explicit PageStats(PageStatsConfig config = {});

    PageStats(const PageStats &) = delete;
    PageStats &operator=(const PageStats &) = delete;

    /** Record one event at @p at. */
    void record(PageEvent event, PageId page, DeviceId from, DeviceId to,
                Tick at);

    /**
     * record() stamped with the tick of the thread's clock slot, for
     * sites that have no engine of their own (the page table's commit
     * point); 0 when the slot is empty.
     */
    void recordNow(PageEvent event, PageId page, DeviceId from,
                   DeviceId to);

    /** @name Static guards for instrumentation sites @{ */

    static void
    recordActive(PageEvent event, PageId page, DeviceId from,
                 DeviceId to, Tick at)
    {
        if (PageStats *ps = Telemetry::current().pages)
            ps->record(event, page, from, to, at);
    }

    static void
    recordActiveNow(PageEvent event, PageId page, DeviceId from,
                    DeviceId to)
    {
        if (PageStats *ps = Telemetry::current().pages)
            ps->recordNow(event, page, from, to);
    }

    /** @} */

    /** @name Inspection (reports, tests) @{ */

    const PageStatsConfig &config() const { return _config; }

    std::uint64_t eventCount(PageEvent event) const
    {
        return _events[unsigned(event)];
    }

    std::uint64_t churnEvents() const { return _churnEvents; }
    std::uint64_t pagesTracked() const { return _pages.size(); }

    /** Migration commits recorded for @p page. */
    std::uint64_t migrationsOf(PageId page) const;

    /** Churn events recorded for @p page. */
    std::uint64_t churnOf(PageId page) const;

    /** Build the copyable end-of-run digest (deterministic order). */
    PageStatsSummary summary() const;

    /** @} */

  private:
    struct PageRec
    {
        std::array<std::uint32_t, numPageEvents> events{};
        std::uint64_t migrations = 0;
        std::uint64_t churn = 0;
        Tick firstSeen = 0;
        Tick lastCommit = 0;
        bool committed = false;
        DeviceId location = invalidDeviceId;
        /** Residency timeline, seeded with the pre-first-commit home. */
        std::vector<ResidencyHop> residency;
        /** When the page last left each device (tiny: <= numDevices). */
        std::vector<std::pair<DeviceId, Tick>> lastLeft;
    };

    PageRec &pageOf(PageId page, Tick at);
    void onCommit(PageRec &rec, PageId page, DeviceId from, DeviceId to,
                  Tick at);

    PageStatsConfig _config;

    std::unordered_map<PageId, PageRec> _pages;
    std::array<std::uint64_t, numPageEvents> _events{};
    std::uint64_t _churnEvents = 0;
    sim::Histogram _reuseDistance{5000.0, 400};
};

} // namespace griffin::obs

#endif // GRIFFIN_OBS_PAGESTATS_HH
