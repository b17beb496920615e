#include "src/gpu/rdma.hh"

namespace griffin::gpu {

Tick
Rdma::serve(Tick now, Addr addr, bool is_write)
{
    if (is_write)
        ++writesServed;
    else
        ++readsServed;

    // L2 lookup; fall through to DRAM on a miss. Dirty victims write
    // back asynchronously (no one waits on them).
    const auto result = _l2.access(addr, is_write);
    if (result.writeback)
        _dram.access(now + _l2.latency(), result.writebackAddr, lineBytes,
                     true);

    if (result.hit) {
        ++l2HitsServed;
        return now + _l2.latency();
    }
    // Write-allocate: a missing line is fetched from DRAM first, so the
    // DRAM transaction is a read either way.
    return _dram.access(now + _l2.latency(), addr, lineBytes, false);
}

} // namespace griffin::gpu
