/**
 * @file
 * The record of one CU access in flight, from the CU's issue to its
 * OpDone. It lives in one table that the system owns; the GPU's
 * translation and cache hops and the system's DCA hops all address it
 * by a 32-bit id (DESIGN §14.5).
 */

#ifndef GRIFFIN_GPU_ACCESS_HH
#define GRIFFIN_GPU_ACCESS_HH

#include "src/gpu/compute_unit.hh"
#include "src/gpu/data_phase.hh"
#include "src/sim/slot_pool.hh"
#include "src/sim/types.hh"

namespace griffin::gpu {

/** One post-coalescing CU access. */
struct Access
{
    Addr vaddr;
    PageId page;
    /** The issuing CU op's completion. */
    OpDone done;
    unsigned cuId;
    DeviceId requester;
    bool isWrite;
    /** Where the translation placed the page (set at translation). */
    DeviceId owner = invalidDeviceId;
    /**
     * The access's data-phase token: the requester's while a local
     * access is in its caches, the owner's while the owner's RDMA
     * serves a remote one. Never both.
     */
    DataPhase::Token dataPhase = 0;
    /** When a remote access left for the owner (DCA latency). */
    Tick begin = 0;
};

using AccessTable = sim::SlotPool<Access>;
using AccessId = sim::SlotId;

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_ACCESS_HH
