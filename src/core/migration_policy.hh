/**
 * @file
 * The policy interface separating the IOMMU mechanism from the page
 * placement strategy.
 *
 * The IOMMU calls into the installed policy whenever a page walk
 * resolves to a CPU-resident page; the policy answers "migrate it to
 * the requester" (demand paging) or "serve it remotely" (DCA). The
 * baseline first-touch policy and Griffin's DFTM are both expressed
 * through this one decision point.
 */

#ifndef GRIFFIN_CORE_MIGRATION_POLICY_HH
#define GRIFFIN_CORE_MIGRATION_POLICY_HH


#include "src/sim/types.hh"

namespace griffin::mem {
class PageTable;
} // namespace griffin::mem

namespace griffin::core {

/** Outcome of a CPU-resident page access. */
struct CpuAccessDecision
{
    /** True: fault + migrate the page to the requesting GPU. */
    bool migrate = true;
};

/**
 * Abstract page-migration policy.
 */
class MigrationPolicy
{
  public:
    virtual ~MigrationPolicy() = default;

    /**
     * A GPU accessed a CPU-resident page (walk completed, page not
     * under migration). Decide between demand paging and DCA.
     *
     * @param requester the GPU issuing the access.
     * @param page      the virtual page.
     * @param pt        the global page table (the policy may update
     *                  per-page policy bits such as DFTM's touched
     *                  bit).
     */
    virtual CpuAccessDecision onCpuResidentAccess(DeviceId requester,
                                                  PageId page,
                                                  mem::PageTable &pt) = 0;

    /**
     * The workload is starting; policies with periodic machinery
     * (Griffin) install their timers here.
     */
    virtual void onSystemStart() {}

    /** The workload finished; stop periodic machinery. */
    virtual void onSystemStop() {}
};

} // namespace griffin::core

#endif // GRIFFIN_CORE_MIGRATION_POLICY_HH
