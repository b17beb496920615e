#include "src/gpu/rdma.hh"

#include <string>
#include <utility>

#include "src/obs/hostprof.hh"
#include "src/obs/trace.hh"

namespace griffin::gpu {

Rdma::Rdma(sim::Engine &engine, ic::Network &network, DeviceId self,
           mem::Cache &l2, mem::Dram &dram, unsigned line_bytes,
           DataPhase *data_phase)
    : _engine(engine), _network(network), _self(self), _l2(l2),
      _dram(dram), _lineBytes(line_bytes), _dataPhase(data_phase)
{
}

void
Rdma::serve(Addr addr, PageId page, bool is_write, DeviceId reply_to,
            sim::EventFn done)
{
    if (is_write)
        ++writesServed;
    else
        ++readsServed;

    const DataPhase::Token token =
        _dataPhase ? _dataPhase->enter(page) : 0;

    const std::uint64_t reply_bytes = is_write
        ? ic::MessageSizes::dcaWriteAck
        : ic::MessageSizes::dcaReadReply;

    // The requester's continuation and the data-phase token wait in a
    // slot; the service hops below capture {this, slot}.
    const sim::SlotId s =
        _inService.acquire(reply_to, reply_bytes, std::move(done), token);
    sim::EventFn finish = [this, s] {
        GHPROF_SCOPE("rdma", "dca_finish");
        Service sv = _inService.take(s);
        if (_dataPhase)
            _dataPhase->leave(sv.dataPhase);
        _network.send(_self, sv.replyTo, sv.replyBytes, std::move(sv.done));
    };

    // Per-line DCA service spans. CatDca is off by default — remote
    // traffic is per-cache-line and would dominate the trace.
    if (obs::TraceSession::activeFor(obs::CatDca)) {
        const Tick begin = _engine.now();
        finish = sim::boxed([this, addr, is_write, reply_to, begin,
                             finish = std::move(finish)]() mutable {
            if (auto *tr = obs::TraceSession::activeFor(obs::CatDca)) {
                tr->complete(obs::CatDca, "rdma" + std::to_string(_self),
                             is_write ? "dca_write" : "dca_read", begin,
                             _engine.now(),
                             obs::TraceArgs()
                                 .add("addr", addr)
                                 .add("from", reply_to));
            }
            finish();
        });
    }

    // L2 lookup; fall through to DRAM on a miss. Dirty victims write
    // back asynchronously (no one waits on them).
    const auto result = _l2.access(addr, is_write);
    if (result.writeback)
        _dram.access(_engine.now() + _l2.latency(), result.writebackAddr,
                     _lineBytes, true);

    if (result.hit) {
        ++l2HitsServed;
        _engine.schedule(_l2.latency(), std::move(finish));
    } else {
        // Write-allocate: a missing line is fetched from DRAM first,
        // so the DRAM transaction is a read either way.
        const Tick ready = _dram.access(_engine.now() + _l2.latency(),
                                        addr, _lineBytes, false);
        _engine.scheduleAt(ready, std::move(finish));
    }
}

} // namespace griffin::gpu
