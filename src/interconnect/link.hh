/**
 * @file
 * A full-duplex point-to-point link with bandwidth serialization.
 *
 * Each direction has its own "next free" cursor: a message occupies
 * the wire for bytes/bandwidth cycles and then propagates for a fixed
 * latency. This is the component that turns page-placement imbalance
 * into congestion — the paper's central performance mechanism
 * (SS II-C, challenge 2).
 */

#ifndef GRIFFIN_IC_LINK_HH
#define GRIFFIN_IC_LINK_HH

#include <cstdint>
#include <vector>

#include "src/sim/types.hh"

namespace griffin::ic {

/** Bandwidth/latency parameters of one link. */
struct LinkConfig
{
    /**
     * Per-direction bandwidth. PCIe-v4 x16 gives 32 GB/s each way; at
     * a 1 GHz model clock that is 32 bytes per cycle (paper Table II).
     */
    double bytesPerCycle = 32.0;
    /** One-way propagation latency. */
    Tick latency = 250;
};

/**
 * One link. Direction 0 is "upstream" (device -> switch), direction 1
 * is "downstream"; the two do not contend with each other.
 */
class Link
{
  public:
    explicit Link(const LinkConfig &config);

    /**
     * Transmit @p bytes in direction @p dir, starting no earlier than
     * @p now and no earlier than the wire being free.
     * @return the delivery time at the far end.
     */
    Tick send(Tick now, unsigned dir, std::uint64_t bytes);

    /** Earliest time a new message could start in @p dir. */
    Tick nextFree(unsigned dir) const { return _nextFree[dir]; }

    /**
     * Open a bandwidth-degradation window: messages that start before
     * @p until serialize at @p factor of the configured bandwidth.
     * Models a fabric fault (link retrain / lane drop). Windows may
     * overlap; where they do, the most-degraded (smallest) factor
     * wins — a later, milder fault never undoes a severe one that is
     * still in effect.
     */
    void degrade(Tick until, double factor);

    /**
     * The bandwidth factor applied to a message starting at @p now:
     * the minimum over all windows still open at that time, 1.0 when
     * none is.
     */
    double degradeFactorAt(Tick now) const;

    /** @name Statistics @{ */
    std::uint64_t messages[2] = {0, 0};
    std::uint64_t bytesSent[2] = {0, 0};
    std::uint64_t busyCycles[2] = {0, 0};
    /** Messages serialized inside a degradation window. */
    std::uint64_t degradedMessages = 0;
    /** @} */

  private:
    /** One degradation window; open until @c until (exclusive). */
    struct Window
    {
        Tick until;
        double factor;
    };

    LinkConfig _config;
    Tick _nextFree[2] = {0, 0};
    /**
     * Open degradation windows, empty outside chaos runs. Kept
     * minimal: degrade() drops windows dominated by a new one, send()
     * prunes windows that have closed. Overlaps are resolved by taking
     * the minimum factor.
     */
    std::vector<Window> _windows;
};

} // namespace griffin::ic

#endif // GRIFFIN_IC_LINK_HH
