/**
 * @file
 * GriffinPolicy: the paper's complete hardware-software proposal
 * (SS III, Figure 6), assembled from its four mechanisms:
 *
 *  - DFTM answers the IOMMU's CPU-resident-access queries;
 *  - every T_ac cycles the driver collects the Shader Engine access
 *    counters from each GPU over the fabric and feeds them to the
 *    DPC in the IOMMU;
 *  - the DPC classifies pages and emits migration candidates;
 *  - CPMS batches candidates per source GPU;
 *  - the MigrationExecutor drains each source (ACUD or flush) and
 *    streams the pages.
 *
 * Each mechanism can be disabled independently for the ablation
 * benches.
 */

#ifndef GRIFFIN_CORE_GRIFFIN_POLICY_HH
#define GRIFFIN_CORE_GRIFFIN_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/acud.hh"
#include "src/core/cpms.hh"
#include "src/core/dftm.hh"
#include "src/core/dpc.hh"
#include "src/core/griffin_config.hh"
#include "src/core/migration_policy.hh"
#include "src/gpu/gpu.hh"
#include "src/gpu/pmc.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/page_table.hh"
#include "src/sim/engine.hh"
#include "src/xlat/iommu.hh"

namespace griffin::core {

/**
 * The full Griffin policy.
 */
class GriffinPolicy : public MigrationPolicy
{
  public:
    /**
     * Probe invoked at the end of every DPC period for each tracked
     * page: (time, page, per-GPU filtered counts, current location).
     * Used by the Figure 10 bench; keep it cheap or narrow.
     */
    using PeriodProbe =
        std::function<void(Tick, PageId, const std::vector<double> &,
                           DeviceId)>;

    GriffinPolicy(sim::Engine &engine, ic::Network &network,
                  mem::PageTable &pt, xlat::Iommu &iommu,
                  std::vector<gpu::Gpu *> gpus,
                  std::vector<gpu::Pmc *> pmcs,
                  const GriffinConfig &config);

    CpuAccessDecision onCpuResidentAccess(DeviceId requester, PageId page,
                                          mem::PageTable &pt) override;

    void onSystemStart() override;
    void onSystemStop() override;

    /** Narrow the period probe to specific pages (empty = all). */
    void setPeriodProbe(PeriodProbe probe,
                        std::vector<PageId> only_pages = {});

    /** CPU-side DCA access observation (feeds the DFTM lease). */
    void
    noteCpuDcaAccess(PageId page)
    {
        _dftm.noteCpuAccess(page, _engine.now());
    }

    const Dftm &dftm() const { return _dftm; }
    const Dpc &dpc() const { return _dpc; }
    const Cpms &cpms() const { return _cpms; }
    const MigrationExecutor &executor() const { return _executor; }
    MigrationExecutor &executor() { return _executor; }

    /** @name Statistics @{ */
    std::uint64_t periodsRun = 0;
    /** @} */

  private:
    sim::Engine &_engine;
    ic::Network &_network;
    mem::PageTable &_pageTable;
    xlat::Iommu &_iommu;
    std::vector<gpu::Gpu *> _gpus;
    GriffinConfig _config;

    Dftm _dftm;
    Dpc _dpc;
    Cpms _cpms;
    MigrationExecutor _executor;

    bool _running = false;
    bool _migrationInFlight = false;

    PeriodProbe _probe;
    std::vector<PageId> _probePages;

    void schedulePeriod();
    void runPeriod();
    void onCountsCollected();
};

} // namespace griffin::core

#endif // GRIFFIN_CORE_GRIFFIN_POLICY_HH
