#include "src/interconnect/switch.hh"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/obs/hostprof.hh"
#include "src/obs/trace.hh"
#include "src/sys/chaos.hh"

namespace griffin::ic {

namespace {
/** Upstream = toward the switch, downstream = toward the device. */
constexpr unsigned dirUp = 0;
constexpr unsigned dirDown = 1;
} // namespace

Network::Network(sim::Engine &engine, unsigned num_devices,
                 const LinkConfig &config)
    : _engine(engine), _links(num_devices, Link(config))
{
    assert(num_devices >= 2);
}

Tick
Network::route(DeviceId src, DeviceId dst, std::uint64_t bytes)
{
    GHPROF_SCOPE("network", "route");
    assert(src < _links.size() && dst < _links.size());
    assert(src != dst && "loopback traffic never crosses the fabric");

    const Tick now = _engine.now();

    // Fabric fault injection: a degradation window throttles the
    // source link for a while; a NACK forces bounded retransmission,
    // each attempt re-occupying the upstream wire.
    unsigned nacks = 0;
    if (_injector) {
        if (_injector->degradeLink()) {
            const auto &cc = _injector->config();
            _links[src].degrade(now + cc.linkDegradeDuration,
                                cc.linkDegradeFactor);
            if (auto *tr = obs::TraceSession::activeFor(obs::CatChaos)) {
                tr->instant(obs::CatChaos,
                            "link" + std::to_string(src), "degrade",
                            now,
                            obs::TraceArgs()
                                .add("until", now + cc.linkDegradeDuration));
            }
        }
        while (nacks < _injector->config().linkMaxRetries &&
               _injector->dropMessage()) {
            ++nacks;
        }
    }

    const Tick up_start = std::max(now, _links[src].nextFree(dirUp));
    // Serialize on the source's upstream wire...
    Tick at_switch = _links[src].send(now, dirUp, bytes);
    if (nacks > 0) {
        ++messagesNacked;
        const auto &cc = _injector->config();
        const Tick first_at = at_switch;
        for (unsigned i = 0; i < nacks; ++i) {
            _injector->noteRetry();
            at_switch = _links[src].send(at_switch + cc.linkRetryDelay,
                                         dirUp, bytes);
        }
        _injector->noteRecoveryCycles(at_switch - first_at);
        if (auto *tr = obs::TraceSession::activeFor(obs::CatChaos)) {
            tr->instant(obs::CatChaos, "link" + std::to_string(src),
                        "nack", now,
                        obs::TraceArgs()
                            .add("retries", nacks)
                            .add("delay", at_switch - first_at));
        }
    }
    const Tick down_start = std::max(at_switch,
                                     _links[dst].nextFree(dirDown));
    // ...then on the destination's downstream wire. The downstream
    // reservation is made now (deterministic given event order), which
    // models an output-queued switch.
    const Tick at_dst = _links[dst].send(at_switch, dirDown, bytes);

    ++messagesDelivered;

    // Per-message wire-occupancy spans. CatNet is off by default — a
    // busy run emits millions of messages.
    if (auto *tr = obs::TraceSession::activeFor(obs::CatNet)) {
        const obs::TraceArgs args = obs::TraceArgs()
                                        .add("bytes", bytes)
                                        .add("src", src)
                                        .add("dst", dst);
        tr->complete(obs::CatNet, "link" + std::to_string(src) + ".up",
                     "xfer", up_start,
                     _links[src].nextFree(dirUp), args);
        tr->complete(obs::CatNet,
                     "link" + std::to_string(dst) + ".down", "xfer",
                     down_start, _links[dst].nextFree(dirDown), args);
    }
    return at_dst;
}

} // namespace griffin::ic
