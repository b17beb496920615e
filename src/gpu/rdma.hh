/**
 * @file
 * The per-device RDMA engine that serves Direct Cache Access requests
 * from other devices (paper SS II-B, Figure 4): a remote device sends a
 * cache-line read/write, the RDMA engine resolves it against the local
 * L2 (falling through to local DRAM on a miss), and the system sends
 * the reply once the line is ready.
 */

#ifndef GRIFFIN_GPU_RDMA_HH
#define GRIFFIN_GPU_RDMA_HH

#include <cstdint>

#include "src/mem/cache.hh"
#include "src/mem/dram.hh"
#include "src/sim/types.hh"

namespace griffin::gpu {

/**
 * Serves incoming DCA traffic against a local L2 + DRAM pair. It keeps
 * no state per access: the access's record does.
 */
class Rdma
{
  public:
    Rdma(mem::Cache &l2, mem::Dram &dram) : _l2(l2), _dram(dram) {}

    /**
     * Serve one remote access to @p addr that arrived at @p now.
     * @return the tick its line is ready to reply with.
     */
    Tick serve(Tick now, Addr addr, bool is_write);

    /** @name Statistics @{ */
    std::uint64_t readsServed = 0;
    std::uint64_t writesServed = 0;
    std::uint64_t l2HitsServed = 0;
    /** @} */

  private:
    mem::Cache &_l2;
    mem::Dram &_dram;
};

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_RDMA_HH
