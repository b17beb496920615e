/**
 * @file
 * Dynamic Page Classification (paper SS III-C).
 *
 * Raw per-GPU access counts collected from the Shader Engine counter
 * tables are smoothed with an exponentially weighted moving average
 * (C_n = (1-alpha) C_{n-1} + alpha N_n) and every tracked page is
 * classified each period:
 *
 *   Mostly Dedicated  one GPU dominates -> migrate to it
 *   Shared            flat distribution -> migrate only off a cold owner
 *   Streaming         low rate          -> never migrate
 *   Owner-Shifting    owner cooling, another GPU warming -> migrate
 *   Out-of-Interest   everything else   -> ignore
 */

#ifndef GRIFFIN_CORE_DPC_HH
#define GRIFFIN_CORE_DPC_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/griffin_config.hh"
#include "src/gpu/access_counter.hh"
#include "src/mem/page_table.hh"
#include "src/sim/node_stock.hh"
#include "src/sim/types.hh"

namespace griffin::sim {
class Engine;
} // namespace griffin::sim

namespace griffin::core {

/** The five page classes of SS III-C. */
enum class PageClass
{
    MostlyDedicated,
    Shared,
    Streaming,
    OwnerShifting,
    OutOfInterest,
};

/** Printable class name. */
const char *pageClassName(PageClass cls);

/** A page the DPC wants moved. */
struct MigrationCandidate
{
    PageId page;
    DeviceId from;
    DeviceId to;
    PageClass reason;
    /** Filtered access count of the destination (priority key). */
    double score;
};

/**
 * The classifier. Lives conceptually in the IOMMU; the driver feeds
 * it the per-GPU counts each period.
 */
class Dpc
{
  public:
    /**
     * @param num_gpus GPUs in the system (GPU g is device g+1).
     * @param config   thresholds (Table I).
     * @param clock    optional timestamp source for trace events
     *                 (class-change instants); nullptr disables them.
     */
    Dpc(unsigned num_gpus, const GriffinConfig &config,
        const sim::Engine *clock = nullptr);

    /**
     * Feed the counts GPU @p gpu (device id) reported this period.
     */
    void addCounts(DeviceId gpu, const std::vector<gpu::PageCount> &counts);

    /**
     * Close the period: apply the EWMA to every tracked page (pages
     * not reported decay toward zero), classify, and emit migration
     * candidates sorted by descending score.
     *
     * @param pt page table (candidate source = current location;
     *        CPU-resident and already-migrating pages are skipped).
     */
    std::vector<MigrationCandidate> endPeriod(const mem::PageTable &pt);

    /** Classify one tracked page (exposed for tests and probes). */
    PageClass classify(PageId page, DeviceId location) const;

    /** Filtered per-GPU counts of @p page (index 0 = GPU device 1). */
    std::vector<double> filteredCounts(PageId page) const;

    /** Tracked page count (for tests / memory bounds). */
    std::size_t trackedPages() const { return _pages.size(); }

    /** @name Statistics @{ */
    std::uint64_t periods = 0;
    std::uint64_t candidatesEmitted = 0;
    std::uint64_t classCounts[5] = {0, 0, 0, 0, 0};
    /** @} */

  private:
    struct PageState
    {
        std::vector<double> filtered;
        std::vector<double> previous;
        std::vector<std::uint32_t> pending; ///< raw counts this period
        /** Last class this page was observed in (-1 = never). */
        int lastClass = -1;
    };

    using Pages = std::unordered_map<PageId, PageState>;

    unsigned _numGpus;
    GriffinConfig _config;
    const sim::Engine *_clock;
    Pages _pages;
    /** Nodes of dropped pages, reused by addCounts(). */
    sim::NodeStock<Pages> _stock;

    unsigned gpuIndex(DeviceId gpu) const { return gpu - 1; }

    /** Classification on explicit state (shared by classify()). */
    PageClass classifyState(const PageState &st, DeviceId location,
                            unsigned *best_gpu) const;
};

} // namespace griffin::core

#endif // GRIFFIN_CORE_DPC_HH
