/**
 * @file
 * Interface for routing Direct Cache Access (DCA) traffic between
 * devices; implemented by the system assembly so a GPU does not need
 * to know about its peers or the CPU memory complex.
 */

#ifndef GRIFFIN_GPU_REMOTE_HH
#define GRIFFIN_GPU_REMOTE_HH

#include "src/gpu/compute_unit.hh"
#include "src/sim/types.hh"

namespace griffin::gpu {

/**
 * Routes a remote (DCA) cache-line access from @p requester to the
 * device owning the page. @p done, the issuing CU op's completion,
 * fires at the requester when the data/ack returns.
 */
class RemoteRouter
{
  public:
    virtual ~RemoteRouter() = default;

    virtual void remoteAccess(DeviceId requester, DeviceId owner,
                              Addr addr, bool is_write,
                              OpDone done) = 0;
};

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_REMOTE_HH
