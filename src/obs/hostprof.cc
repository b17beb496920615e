#include "src/obs/hostprof.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>
#include <utility>

namespace griffin::obs {

namespace {

/** Every interned site name, indexed by id; shared by all threads. */
std::mutex registryMutex;
std::vector<std::pair<const char *, const char *>> registryNames;

/** The bucket a scope-less dispatch falls into. */
constinit Site unattributedSite{"sim", "unattributed"};

} // namespace

double
HostProfile::eventsPerSec() const
{
    if (wallNs == 0 || events == 0)
        return 0.0;
    return double(events) * 1e9 / double(wallNs);
}

std::uint64_t
HostProfile::unattributedNs() const
{
    const Bucket *b = findBucket("sim", "unattributed");
    return b ? b->selfNs : 0;
}

std::uint64_t
HostProfile::attributedNs() const
{
    const std::uint64_t un = unattributedNs();
    return un < dispatchNs ? dispatchNs - un : 0;
}

double
HostProfile::attributedFraction() const
{
    if (dispatchNs == 0)
        return 1.0;
    return double(attributedNs()) / double(dispatchNs);
}

std::uint64_t
HostProfile::obsNs() const
{
    std::uint64_t total = 0;
    for (const Bucket &b : buckets)
        if (b.component == "obs")
            total += b.selfNs;
    return total;
}

double
HostProfile::obsFraction() const
{
    if (dispatchNs == 0)
        return 0.0;
    return double(obsNs()) / double(dispatchNs);
}

const HostProfile::Bucket *
HostProfile::findBucket(const std::string &component,
                        const std::string &event) const
{
    for (const Bucket &b : buckets)
        if (b.component == component && b.event == event)
            return &b;
    return nullptr;
}

void
HostProfile::merge(const HostProfile &other)
{
    enabled = enabled || other.enabled;
    wallNs += other.wallNs;
    dispatchNs += other.dispatchNs;
    events += other.events;

    // Re-keying through an ordered map both merges duplicates and
    // restores the sorted invariant in one pass.
    std::map<std::pair<std::string, std::string>, Bucket> merged;
    const std::vector<Bucket> *lists[] = {&buckets, &other.buckets};
    for (const auto *list : lists) {
        for (const Bucket &b : *list) {
            Bucket &m = merged[{b.component, b.event}];
            m.count += b.count;
            m.selfNs += b.selfNs;
        }
    }
    buckets.clear();
    for (const auto &[name, b] : merged)
        buckets.push_back(Bucket{name.first, name.second, b.count, b.selfNs});
}

std::string
HostProfile::folded() const
{
    std::ostringstream out;
    for (const Bucket &b : buckets)
        out << b.component << ';' << b.event << ' ' << b.selfNs << '\n';
    return out.str();
}

std::uint32_t
Site::intern()
{
    const std::lock_guard<std::mutex> lock(registryMutex);
    // Interning is by content: distinct literals with the same name
    // (the same scope at two call sites) share one id.
    std::uint32_t id = 0;
    while (id < registryNames.size() &&
           (std::strcmp(registryNames[id].first, component) != 0 ||
            std::strcmp(registryNames[id].second, event) != 0))
        ++id;
    if (id == registryNames.size())
        registryNames.emplace_back(component, event);
    cached.store(id + 1, std::memory_order_relaxed);
    return id;
}

void
HostProfiler::enter(Site &site)
{
    const std::uint32_t id = site.id();
    ++at(id).count;
    // The first scope of a bracket claims it: the bracket charges to
    // this site from its start, so entering switches nothing.
    const std::uint32_t prev = _top == kUnclaimed ? id : _top;
    _stack.push_back(prev);
    if (prev != id)
        charge();
    _top = id;
}

void
HostProfiler::leave()
{
    const std::uint32_t prev = _stack.back();
    _stack.pop_back();
    if (prev != _top)
        charge();
    _top = prev;
}

void
HostProfiler::startTimer()
{
    _startTime = now();
    _wallNs = 0;
}

void
HostProfiler::beginDispatch()
{
    charge();
    _dispatchBegin = _last;
    _top = kUnclaimed;
}

void
HostProfiler::endDispatch()
{
    if (_top == kUnclaimed) {
        // No scope opened: an uninstrumented event type. Count it so
        // the attribution fraction exposes the gap.
        _top = unattributedSite.id();
        ++at(_top).count;
    }
    charge();
    _dispatchNs += _last - _dispatchBegin;
    ++_events;
    _top = kIdle;
}

void
HostProfiler::stopTimer()
{
    if (_startTime == 0)
        return;
    _wallNs = now() - _startTime;
    _startTime = 0;
}

HostProfile
HostProfiler::profile() const
{
    HostProfile out;
    out.enabled = true;
    out.wallNs = _wallNs;
    out.dispatchNs = _dispatchNs;
    out.events = _events;

    // Every site this profiler entered has a nonzero count; the rest
    // are other runs' sites.
    const std::lock_guard<std::mutex> lock(registryMutex);
    for (std::uint32_t id = 0; id < _sites.size(); ++id) {
        if (_sites[id].count > 0)
            out.buckets.push_back(HostProfile::Bucket{
                registryNames[id].first, registryNames[id].second,
                _sites[id].count, _sites[id].selfNs});
    }
    std::sort(out.buckets.begin(), out.buckets.end(),
              [](const HostProfile::Bucket &a, const HostProfile::Bucket &b) {
                  return std::tie(a.component, a.event) <
                         std::tie(b.component, b.event);
              });
    return out;
}

} // namespace griffin::obs
