#include "src/obs/span.hh"

#include <cassert>
#include <utility>

namespace griffin::obs {

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::WalkQueue: return "walk_queue";
      case Stage::Walk: return "walk";
      case Stage::Policy: return "policy";
      case Stage::BatchWait: return "batch_wait";
      case Stage::Shootdown: return "shootdown";
      case Stage::TransferQueue: return "transfer_queue";
      case Stage::Transfer: return "transfer";
      case Stage::Resume: return "resume";
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// CriticalPath
// ---------------------------------------------------------------------

CriticalPath::CriticalPath() : _total(faultScaleHistogram())
{
    _stageHist.reserve(numStages);
    for (unsigned s = 0; s < numStages; ++s)
        _stageHist.push_back(faultScaleHistogram());
    _stageSum.assign(numStages, 0.0);
}

void
CriticalPath::addFault(const FaultRecord &record)
{
    assert(!record.marks.empty() && "cannot aggregate an open fault");
    ++_faults;
    Tick prev = record.origin;
    unsigned prev_stage = 0;
    for (const StageMark &mark : record.marks) {
        assert(mark.at >= prev && "stage marks must be monotone");
        assert((record.marks.front().stage == mark.stage ||
                unsigned(mark.stage) > prev_stage) &&
               "stage marks must follow the taxonomy order");
        prev_stage = unsigned(mark.stage);
        const double dur = double(mark.at - prev);
        _stageHist[unsigned(mark.stage)].sample(dur);
        _stageSum[unsigned(mark.stage)] += dur;
        prev = mark.at;
    }
    _total.sample(double(record.totalLatency()));
}

double
CriticalPath::share(Stage stage) const
{
    const double total = _total.sum();
    return total > 0.0 ? _stageSum[unsigned(stage)] / total : 0.0;
}

// ---------------------------------------------------------------------
// FaultSpans
// ---------------------------------------------------------------------

FaultId
FaultSpans::beginFault(DeviceId gpu, PageId page, Tick origin)
{
    const FaultId fid = _nextId++;
    FaultRecord &rec = _open[fid];
    rec.id = fid;
    rec.gpu = gpu;
    rec.page = page;
    rec.origin = origin;
    rec.marks.reserve(numStages);
    return rec.id;
}

void
FaultSpans::mark(FaultId fid, Stage stage, Tick at)
{
    auto it = _open.find(fid);
    if (it == _open.end())
        return; // already completed, or never begun
    FaultRecord &rec = it->second;
    // Clamp forward: a boundary observed "before" the previous one
    // (e.g. a walk that started before this requester joined it)
    // contributes a zero-length stage instead of a negative one.
    const Tick floor = rec.marks.empty() ? rec.origin : rec.marks.back().at;
    if (at < floor)
        at = floor;
    assert((rec.marks.empty() ||
            unsigned(stage) > unsigned(rec.marks.back().stage)) &&
           "stages must be marked in taxonomy order, at most once");
    rec.marks.push_back(StageMark{stage, at});
}

void
FaultSpans::complete(FaultId fid, Tick at)
{
    auto it = _open.find(fid);
    if (it == _open.end())
        return;
    mark(fid, Stage::Resume, at);
    _criticalPath.addFault(it->second);
    _completed.push_back(std::move(it->second));
    _open.erase(it);
}

} // namespace griffin::obs
