#include "src/gpu/compute_unit.hh"

#include "src/obs/hostprof.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace griffin::gpu {

ComputeUnit::ComputeUnit(sim::Engine &engine, CuMemoryInterface &memory,
                         unsigned cu_id, const CuConfig &config)
    : _engine(engine), _memory(memory), _cuId(cu_id), _config(config)
{
    assert(config.maxWavefronts > 0);
}

std::size_t
ComputeUnit::inflightOps() const
{
    return std::size_t(std::count_if(
        _wfStates.begin(), _wfStates.end(),
        [](const WfState &wf) { return wf.inFlight; }));
}

void
ComputeUnit::startWorkgroup(wl::Workgroup wg, sim::EventFn on_done)
{
    assert(!_wgActive && "CU runs one workgroup at a time");
    assert(inflightOps() == 0);

    _wgActive = true;
    _wg = std::move(wg);
    _wgDone = std::move(on_done);
    _wfStates.assign(_wg.wavefronts.size(), WfState{});
    _waitingWavefronts.clear();
    _runningWavefronts = 0;
    _finishedWavefronts = 0;

    if (_wg.wavefronts.empty()) {
        // Degenerate but legal: an empty workgroup retires at once.
        _engine.schedule(_config.issueLatency, [this] {
            GHPROF_SCOPE("cu", "retire");
            ++workgroupsRetired;
            _wgActive = false;
            auto done = std::move(_wgDone);
            _wgDone = nullptr;
            if (done)
                done();
        });
        return;
    }

    for (std::size_t wf = 0; wf < _wfStates.size(); ++wf) {
        if (_runningWavefronts < _config.maxWavefronts) {
            ++_runningWavefronts;
            _engine.schedule(_config.issueLatency,
                             [this, wf] { tryIssue(wf); });
        } else {
            _waitingWavefronts.push_back(wf);
        }
    }
}

void
ComputeUnit::tryIssue(std::size_t wf_index)
{
    GHPROF_SCOPE("cu", "issue");
    WfState &wf = _wfStates[wf_index];
    if (wf.finished || wf.inFlight)
        return;
    if (_paused) {
        wf.pendingIssue = true;
        return;
    }
    wf.pendingIssue = false;

    if (wf.pc >= _wg.wavefronts[wf_index].ops.size()) {
        finishWavefront(wf_index);
        return;
    }
    issueOp(wf_index);
}

void
ComputeUnit::issueOp(std::size_t wf_index)
{
    WfState &wf = _wfStates[wf_index];
    const wl::MemOp &op = _wg.wavefronts[wf_index].ops[wf.pc];

    const std::uint64_t seq = _nextSeq++;
    wf.seq = seq;
    wf.inFlight = true;
    wf.computeDelay = op.computeDelay;
    ++opsIssued;

    _memory.cuAccess(_cuId, op.vaddr, op.isWrite,
                     OpDone{this, std::uint32_t(wf_index), seq});
}

void
ComputeUnit::onOpDone(std::size_t wf_index, std::uint64_t seq)
{
    GHPROF_SCOPE("cu", "op_done");
    // A reply whose op flushPipeline() discarded is stale. Its
    // wavefront may have re-issued since (another seq), or it belongs
    // to an earlier, larger workgroup (index out of range).
    if (wf_index >= _wfStates.size())
        return;
    WfState &wf = _wfStates[wf_index];
    if (!wf.inFlight || wf.seq != seq)
        return;
    wf.inFlight = false;
    ++opsCompleted;

    ++wf.pc;
    const Tick delay = std::max<Tick>(1, wf.computeDelay);
    _engine.schedule(delay, [this, wf_index] { tryIssue(wf_index); });
}

void
ComputeUnit::finishWavefront(std::size_t wf_index)
{
    WfState &wf = _wfStates[wf_index];
    assert(!wf.finished && !wf.inFlight);
    wf.finished = true;
    ++_finishedWavefronts;
    assert(_runningWavefronts > 0);
    --_runningWavefronts;

    // Admit a waiting wavefront, if any.
    if (!_waitingWavefronts.empty()) {
        const std::size_t next = _waitingWavefronts.front();
        _waitingWavefronts.pop_front();
        ++_runningWavefronts;
        _engine.schedule(_config.issueLatency,
                         [this, next] { tryIssue(next); });
    }

    if (_finishedWavefronts == _wfStates.size()) {
        ++workgroupsRetired;
        _wgActive = false;
        auto done = std::move(_wgDone);
        _wgDone = nullptr;
        if (done)
            done();
    }
}

void
ComputeUnit::pauseIssue()
{
    _paused = true;
}

void
ComputeUnit::flushPipeline()
{
    _paused = true;

    // Discard every in-flight transaction: replies become stale and
    // the wavefronts replay the same pc after resume().
    for (WfState &wf : _wfStates) {
        if (!wf.inFlight)
            continue;
        wf.inFlight = false;
        wf.pendingIssue = true;
        ++opsDiscarded;
    }
}

void
ComputeUnit::resume()
{
    assert(_paused);
    _paused = false;

    for (std::size_t wf = 0; wf < _wfStates.size(); ++wf) {
        if (_wfStates[wf].pendingIssue)
            _engine.schedule(_config.issueLatency,
                             [this, wf] { tryIssue(wf); });
    }
}

} // namespace griffin::gpu
