/**
 * @file
 * The baseline NUMA multi-GPU policy (paper SS IV, "Baseline NUMA
 * Multi-GPU System"): on a GPU's first touch the page migrates from
 * the CPU to that GPU and is pinned there; all later remote accesses
 * use DCA. Inter-GPU migration never happens.
 */

#ifndef GRIFFIN_CORE_FIRST_TOUCH_POLICY_HH
#define GRIFFIN_CORE_FIRST_TOUCH_POLICY_HH

#include <cstdint>

#include "src/core/migration_policy.hh"

namespace griffin::core {

/**
 * First-touch demand paging with pinning.
 */
class FirstTouchPolicy : public MigrationPolicy
{
  public:
    CpuAccessDecision onCpuResidentAccess(DeviceId requester, PageId page,
                                          mem::PageTable &pt) override;

    /** Migrations triggered (== faults raised by this policy). */
    std::uint64_t firstTouchMigrations = 0;
};

} // namespace griffin::core

#endif // GRIFFIN_CORE_FIRST_TOUCH_POLICY_HH
