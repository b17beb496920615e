#include "src/obs/trace.hh"

#include "src/obs/hostprof.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>
#include <ostream>
#include <utility>

#include "src/obs/json.hh"

namespace griffin::obs {

const char *
categoryName(Category cat)
{
    switch (cat) {
      case CatFault: return "fault";
      case CatMigration: return "migration";
      case CatShootdown: return "shootdown";
      case CatDrain: return "drain";
      case CatPolicy: return "policy";
      case CatNet: return "net";
      case CatDca: return "dca";
      case CatChaos: return "chaos";
    }
    return "other";
}

// ---------------------------------------------------------------------
// TraceArgs
// ---------------------------------------------------------------------

void
TraceArgs::key(const char *k)
{
    _body += _body.empty() ? "{" : ",";
    _body += '"';
    _body += json::escape(k);
    _body += "\":";
}

TraceArgs &
TraceArgs::add(const char *k, std::uint64_t value)
{
    key(k);
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(value));
    _body += buf;
    return *this;
}

TraceArgs &
TraceArgs::add(const char *k, double value)
{
    key(k);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    _body += buf;
    return *this;
}

TraceArgs &
TraceArgs::add(const char *k, const char *value)
{
    key(k);
    _body += '"';
    _body += json::escape(value);
    _body += '"';
    return *this;
}

TraceArgs &
TraceArgs::add(const char *k, const std::string &value)
{
    return add(k, value.c_str());
}

std::string
TraceArgs::json() const
{
    return _body.empty() ? std::string() : _body + "}";
}

// ---------------------------------------------------------------------
// TraceSession
// ---------------------------------------------------------------------

TraceSession::TraceSession(std::uint32_t categories)
    : _categories(categories)
{
    _processNames.push_back("sim");
}

TraceSession::~TraceSession()
{
    if (_attached)
        detach();
}

void
TraceSession::attach()
{
    if (_attached)
        return;
    TraceSession *&slot = Telemetry::current().trace;
    _prevActive = slot;
    slot = this;
    _attached = true;
}

void
TraceSession::detach()
{
    if (!_attached)
        return;
    // Sessions detach LIFO in practice; tolerate out-of-order anyway.
    TraceSession *&slot = Telemetry::current().trace;
    if (slot == this)
        slot = _prevActive;
    _attached = false;
    _prevActive = nullptr;
}

void
TraceSession::beginProcess(const std::string &name)
{
    _pid = std::uint32_t(_processNames.size());
    _processNames.push_back(name);
}

std::uint32_t
TraceSession::trackId(const std::string &track)
{
    const auto key = std::make_pair(_pid, track);
    auto it = _tracks.find(key);
    if (it != _tracks.end())
        return it->second;
    const std::uint32_t tid = _nextTid++;
    _tracks.emplace(key, tid);
    _trackNames.emplace_back(_pid, track);
    return tid;
}

void
TraceSession::instant(Category cat, const std::string &track,
                      const std::string &name, Tick ts,
                      const TraceArgs &args)
{
    GHPROF_SCOPE("obs", "trace");
    _events.push_back(Event{'i', _pid, trackId(track), ts, 0, 0,
                            categoryName(cat), name, args.json()});
}

void
TraceSession::complete(Category cat, const std::string &track,
                       const std::string &name, Tick begin, Tick end,
                       const TraceArgs &args)
{
    GHPROF_SCOPE("obs", "trace");
    assert(end >= begin);
    _events.push_back(Event{'X', _pid, trackId(track), begin, end - begin,
                            0, categoryName(cat), name, args.json()});
}

void
TraceSession::flow(Category cat, const std::string &track,
                   const std::string &name, Tick ts, std::uint64_t id,
                   FlowPhase phase)
{
    const char ph = phase == FlowPhase::Begin ? 's'
                  : phase == FlowPhase::Step  ? 't'
                                              : 'f';
    GHPROF_SCOPE("obs", "trace");
    _events.push_back(Event{ph, _pid, trackId(track), ts, 0, id,
                            categoryName(cat), name, std::string()});
}

void
TraceSession::writeEvent(std::ostream &os, const Event &ev,
                         std::uint32_t pid)
{
    os << "{\"name\":\"" << json::escape(ev.name) << "\",\"cat\":\""
       << ev.cat << "\",\"ph\":\"" << ev.ph << "\",\"pid\":" << pid
       << ",\"tid\":" << ev.tid << ",\"ts\":" << ev.ts;
    switch (ev.ph) {
      case 'X':
        os << ",\"dur\":" << ev.dur;
        break;
      case 'i':
        os << ",\"s\":\"t\"";
        break;
      case 's':
        os << ",\"id\":" << ev.flowId;
        break;
      case 't':
      case 'f':
        // Bind to the enclosing slice so arrows land on the spans
        // they causally connect.
        os << ",\"id\":" << ev.flowId << ",\"bp\":\"e\"";
        break;
      default:
        break;
    }
    if (!ev.args.empty())
        os << ",\"args\":" << ev.args;
    os << "}";
}

void
TraceSession::writeMerged(std::ostream &os,
                          const std::vector<const TraceSession *> &sessions)
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    // Renumber processes globally: session order, then local pid
    // order. The implicit "sim" process (local pid 0) is included
    // only when a session recorded events without ever calling
    // beginProcess.
    struct PidKey
    {
        std::size_t session;
        std::uint32_t localPid;
        bool operator<(const PidKey &o) const
        {
            return session != o.session ? session < o.session
                                        : localPid < o.localPid;
        }
    };
    std::map<PidKey, std::uint32_t> pidMap;
    std::uint32_t nextPid = 1;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
        const TraceSession *t = sessions[s];
        if (!t)
            continue;
        for (std::uint32_t p = 0; p < t->_processNames.size(); ++p) {
            if (p == 0 && t->_processNames.size() > 1)
                continue; // the implicit "sim" process went unused
            pidMap.emplace(PidKey{s, p}, nextPid);
            sep();
            os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
               << nextPid << ",\"tid\":0,\"args\":{\"name\":\""
               << json::escape(t->_processNames[p]) << "\"}}";
            ++nextPid;
        }
    }
    for (std::size_t s = 0; s < sessions.size(); ++s) {
        const TraceSession *t = sessions[s];
        if (!t)
            continue;
        for (const auto &[pid, track] : t->_trackNames) {
            sep();
            os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
               << pidMap.at(PidKey{s, pid}) << ",\"tid\":"
               << t->_tracks.at(std::make_pair(pid, track))
               << ",\"args\":{\"name\":\"" << json::escape(track)
               << "\"}}";
        }
    }

    // One global timeline: stable sort keeps session order (and then
    // emission order) for same-tick events.
    struct Ref
    {
        const Event *ev;
        std::uint32_t pid;
    };
    std::vector<Ref> sorted;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
        const TraceSession *t = sessions[s];
        if (!t)
            continue;
        sorted.reserve(sorted.size() + t->_events.size());
        for (const Event &ev : t->_events) {
            // Events recorded before the first beginProcess() of a
            // multi-process session keep the unnamed pid 0.
            const auto it = pidMap.find(PidKey{s, ev.pid});
            sorted.push_back(Ref{&ev, it != pidMap.end() ? it->second : 0});
        }
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Ref &a, const Ref &b) {
                         return a.ev->ts < b.ev->ts;
                     });

    for (const Ref &r : sorted) {
        sep();
        writeEvent(os, *r.ev, r.pid);
    }
    os << "\n]}\n";
}

} // namespace griffin::obs
