/**
 * @file
 * Fundamental scalar types shared by every module in the simulator.
 */

#ifndef GRIFFIN_SIM_TYPES_HH
#define GRIFFIN_SIM_TYPES_HH

#include <cstdint>

namespace griffin {

/** Simulated time, in GPU core cycles (the GPU clock is 1 GHz). */
using Tick = std::uint64_t;

/** A virtual or physical byte address. */
using Addr = std::uint64_t;

/** Virtual page number (address >> page shift). */
using PageId = std::uint64_t;

/**
 * A device identifier. The CPU is always device 0; GPUs are numbered
 * 1..numGpus. Using one id space keeps page-table bookkeeping and
 * interconnect routing uniform.
 */
using DeviceId = std::uint32_t;

/** The CPU's device id. */
inline constexpr DeviceId cpuDeviceId = 0;

/** An invalid / "no device" marker. */
inline constexpr DeviceId invalidDeviceId = ~DeviceId(0);

/**
 * Bytes per cache line: the block of every cache, the DRAM burst of
 * a line fill or writeback, the payload of a DCA message, and the
 * size of one post-coalescing workload transaction.
 */
inline constexpr unsigned lineBytes = 64;

/** Sentinel for "never" / "not scheduled". */
inline constexpr Tick maxTick = ~Tick(0);

/**
 * Identity of one page fault, allocated when the IOMMU raises the
 * fault and threaded through the whole service path (driver batch,
 * PMC transfer, translation replay) so the observability layer can
 * assemble a causal span tree per fault (obs/span.hh).
 */
using FaultId = std::uint64_t;

/** "No fault being tracked": instrumentation points become no-ops. */
inline constexpr FaultId invalidFaultId = 0;

} // namespace griffin

#endif // GRIFFIN_SIM_TYPES_HH
