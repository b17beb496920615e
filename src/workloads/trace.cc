#include "src/workloads/trace.hh"

#include <cassert>
#include <utility>

namespace griffin::wl {

TraceBuilder::TraceBuilder(std::size_t ops_per_wavefront,
                           std::uint32_t compute_delay,
                           std::size_t max_wavefronts)
    : _opsPerWavefront(ops_per_wavefront), _delay(compute_delay),
      _maxWavefronts(max_wavefronts)
{
    assert(ops_per_wavefront > 0 && max_wavefronts > 0);
}

void
TraceBuilder::add(Addr vaddr, bool is_write)
{
    _ops.push_back(MemOp{vaddr, _delay, is_write});
}

Workgroup
TraceBuilder::finishWorkgroup(std::uint32_t id)
{
    Workgroup wg;
    wg.id = id;
    if (_ops.empty())
        return wg;

    const std::size_t num_wfs = std::min(
        _maxWavefronts,
        (_ops.size() + _opsPerWavefront - 1) / _opsPerWavefront);
    wg.wavefronts.resize(num_wfs);
    for (std::size_t wf = 0; wf < num_wfs; ++wf)
        wg.wavefronts[wf].ops.reserve(_ops.size() / num_wfs + 1);

    // Deal the stream round-robin: wavefront j executes ops
    // j, j+K, j+2K, ... so the workgroup's wavefronts advance through
    // the same pages together.
    for (std::size_t i = 0; i < _ops.size(); ++i)
        wg.wavefronts[i % num_wfs].ops.push_back(_ops[i]);

    _ops.clear();
    return wg;
}

} // namespace griffin::wl
