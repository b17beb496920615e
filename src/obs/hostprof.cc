#include "src/obs/hostprof.hh"

#include <algorithm>
#include <map>
#include <sstream>

namespace griffin::obs {

namespace {

/**
 * The bucket a scope-less dispatch falls into. Module-level literals
 * so every record() call keys on the same pointers.
 */
const char *const kSimComponent = "sim";
const char *const kUnattributed = "unattributed";

std::uint64_t
nowMinus(std::chrono::steady_clock::time_point begin)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin)
            .count());
}

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
    const Bucket *b = findBucket(kSimComponent, kUnattributed);
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
    std::map<std::pair<std::string, std::string>,
             std::pair<std::uint64_t, std::uint64_t>>
        merged;
    for (const Bucket &b : buckets) {
        auto &slot = merged[{b.component, b.event}];
        slot.first += b.count;
        slot.second += b.selfNs;
    }
    for (const Bucket &b : other.buckets) {
        auto &slot = merged[{b.component, b.event}];
        slot.first += b.count;
        slot.second += b.selfNs;
    }
    buckets.clear();
    buckets.reserve(merged.size());
    for (const auto &[key, val] : merged)
        buckets.push_back(Bucket{key.first, key.second, val.first,
                                 val.second});
}

std::string
HostProfile::folded() const
{
    std::ostringstream out;
    for (const Bucket &b : buckets)
        out << b.component << ';' << b.event << ' ' << b.selfNs << '\n';
    return out.str();
}

std::optional<HostProfile>
HostProfile::parseFolded(const std::string &text)
{
    HostProfile profile;
    profile.enabled = true;

    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        // "component;event selfNs" — the value follows the last space
        // so event names may themselves contain spaces.
        const auto space = line.find_last_of(' ');
        if (space == std::string::npos || space == 0 ||
            space + 1 >= line.size())
            return std::nullopt;
        const std::string stack = line.substr(0, space);
        const std::string value = line.substr(space + 1);

        const auto semi = stack.find(';');
        if (semi == std::string::npos || semi == 0 ||
            semi + 1 >= stack.size())
            return std::nullopt;

        std::uint64_t self_ns = 0;
        for (const char c : value) {
            if (c < '0' || c > '9')
                return std::nullopt;
            self_ns = self_ns * 10 + std::uint64_t(c - '0');
        }

        Bucket bucket;
        bucket.component = stack.substr(0, semi);
        bucket.event = stack.substr(semi + 1);
        bucket.selfNs = self_ns;
        profile.buckets.push_back(std::move(bucket));
        profile.dispatchNs += self_ns;
    }

    std::sort(profile.buckets.begin(), profile.buckets.end(),
              [](const Bucket &a, const Bucket &b) {
                  return a.component != b.component
                             ? a.component < b.component
                             : a.event < b.event;
              });
    return profile;
}

void
HostProfiler::startTimer()
{
    _startTime = std::chrono::steady_clock::now();
    _stopped = false;
    _wallNs = 0;
}

void
HostProfiler::beginDispatch()
{
    _rootFrame = Frame{};
    _top = &_rootFrame;
    _dispatchBegin = std::chrono::steady_clock::now();
}

void
HostProfiler::endDispatch()
{
    const std::uint64_t ns = nowMinus(_dispatchBegin);
    const std::uint64_t child =
        _rootFrame.childNs < ns ? _rootFrame.childNs : ns;
    const std::uint64_t self = ns - child;
    if (_rootFrame.component) {
        // The bracket's own self time (std::function call, scope
        // setup) belongs to the first scope's component; count 0 so
        // bucket counts stay a pure function of the event sequence.
        record(_rootFrame.component, _rootFrame.event, self, 0);
    } else {
        // No scope opened: an uninstrumented event type. Count it so
        // the attribution fraction exposes the gap.
        record(kSimComponent, kUnattributed, self, 1);
    }
    _dispatchNs += ns;
    ++_events;
    _top = nullptr;
}

void
HostProfiler::stopTimer()
{
    if (_stopped)
        return;
    _wallNs = nowMinus(_startTime);
    _stopped = true;
}

void
HostProfiler::record(const char *component, const char *event,
                     std::uint64_t self_ns, std::uint64_t count)
{
    Counts &slot = _buckets[{component, event}];
    slot.count += count;
    slot.selfNs += self_ns;
}

HostProfile
HostProfiler::profile() const
{
    HostProfile out;
    out.enabled = true;
    out.wallNs = _wallNs;
    out.dispatchNs = _dispatchNs;
    out.events = _events;

    // The raw map keys on literal pointers; distinct literals with
    // identical content (e.g. the same scope name in two translation
    // units) merge here, and the ordered map gives the deterministic
    // (component, event) order the report relies on.
    std::map<std::pair<std::string, std::string>,
             std::pair<std::uint64_t, std::uint64_t>>
        merged;
    for (const auto &[key, counts] : _buckets) {
        auto &slot = merged[{key.first, key.second}];
        slot.first += counts.count;
        slot.second += counts.selfNs;
    }
    out.buckets.reserve(merged.size());
    for (const auto &[key, val] : merged)
        out.buckets.push_back(HostProfile::Bucket{
            key.first, key.second, val.first, val.second});
    return out;
}

} // namespace griffin::obs
