/**
 * @file
 * The inter-device network: a central switch with one full-duplex link
 * per device (the CPU plus every GPU), matching the PCIe topology of
 * the paper's testbed (Table II, "Inter-Device Network").
 *
 * A message from device A to device B serializes on A's upstream wire,
 * then on B's downstream wire. Ties at the switch resolve in event-
 * scheduling order, which — because the dispatcher starts GPU 1
 * earliest — reproduces the arbitration bias the paper identifies as a
 * cause of first-touch imbalance (SS II-C, challenge 2).
 */

#ifndef GRIFFIN_IC_SWITCH_HH
#define GRIFFIN_IC_SWITCH_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "src/interconnect/link.hh"
#include "src/sim/engine.hh"
#include "src/sim/types.hh"

namespace griffin::sys {
class FaultInjector;
} // namespace griffin::sys

namespace griffin::ic {

/** Common message sizes on the fabric, in bytes. */
struct MessageSizes
{
    static constexpr std::uint64_t header = 8;
    static constexpr std::uint64_t xlatRequest = 64;
    static constexpr std::uint64_t xlatReply = 64;
    static constexpr std::uint64_t dcaReadRequest = header + 8;
    static constexpr std::uint64_t dcaReadReply = header + lineBytes;
    static constexpr std::uint64_t dcaWriteRequest = header + lineBytes;
    static constexpr std::uint64_t dcaWriteAck = header;
    static constexpr std::uint64_t drainCommand = 64;
    static constexpr std::uint64_t drainReply = header;
    /** Pages an SE reports per access-count collection (SS III-C). */
    static constexpr std::uint64_t accessCountPages = 20;
    /** Each page is a 36-bit id and an 8-bit count: 110 B for 20. */
    static constexpr std::uint64_t accessCountReply =
        (accessCountPages * (36 + 8) + 7) / 8;
    static constexpr std::uint64_t accessCountRequest = header;
};

/**
 * Star network over Links.
 */
class Network
{
  public:
    /**
     * @param engine      event engine used to deliver messages.
     * @param num_devices devices attached (CPU is device 0).
     * @param config      per-link bandwidth/latency.
     */
    Network(sim::Engine &engine, unsigned num_devices,
            const LinkConfig &config);

    /**
     * Send @p bytes from @p src to @p dst; @p deliver (any callable an
     * EventFn accepts, or an EventFn rvalue) is the delivery event,
     * built in its queue entry to run when the last byte arrives.
     */
    template <typename F>
    void
    send(DeviceId src, DeviceId dst, std::uint64_t bytes, F &&deliver)
    {
        _engine.scheduleAt(route(src, dst, bytes), std::forward<F>(deliver));
    }

    /** The link attaching @p dev (for stats and tests). */
    const Link &link(DeviceId dev) const { return _links[dev]; }
    Link &link(DeviceId dev) { return _links[dev]; }

    /**
     * Attach a fault injector (nullptr detaches). When set, each
     * message may be NACKed (bounded retransmits re-occupy the
     * upstream wire after a retry delay) or open a bandwidth-
     * degradation window on the source link.
     */
    void setFaultInjector(sys::FaultInjector *injector)
    {
        _injector = injector;
    }

    /** Total messages delivered. */
    std::uint64_t messagesDelivered = 0;
    /** Messages that suffered at least one injected NACK. */
    std::uint64_t messagesNacked = 0;

  private:
    sim::Engine &_engine;
    std::vector<Link> _links;
    sys::FaultInjector *_injector = nullptr;

    /** Reserve and count one message's wires; @return its arrival. */
    Tick route(DeviceId src, DeviceId dst, std::uint64_t bytes);
};

} // namespace griffin::ic

#endif // GRIFFIN_IC_SWITCH_HH
