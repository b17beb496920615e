/**
 * @file
 * Interface for routing Direct Cache Access (DCA) traffic between
 * devices; implemented by the system assembly so a GPU does not need
 * to know about its peers or the CPU memory complex.
 */

#ifndef GRIFFIN_GPU_REMOTE_HH
#define GRIFFIN_GPU_REMOTE_HH

#include "src/gpu/access.hh"

namespace griffin::gpu {

/**
 * Routes a remote (DCA) cache-line access to the device owning the
 * page. The access's record names its requester and owner; the router
 * releases it and runs its done, at the requester, when the data/ack
 * returns.
 */
class RemoteRouter
{
  public:
    virtual ~RemoteRouter() = default;

    virtual void remoteAccess(AccessId id) = 0;
};

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_REMOTE_HH
