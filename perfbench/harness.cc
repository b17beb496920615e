/**
 * @file
 * Closed-loop batch benchmark of the Griffin simulator.
 *
 * One process, one thread, no arrival rate: the harness runs a
 * workload's simulations back to back through the library's public
 * calls (wl::makeWorkload, the sys::MultiGpuSystem constructor and
 * run(), sys::runReportJson / reportDocument) and reports host cost
 * next to exact model results. See README.md for the metric catalogue.
 *
 *   perfbench_harness --workload=fig12-sweep --seed=1 --seconds=30 \
 *       --trace=0 --out=DIR --expected=perfbench/expected.txt
 *
 * Steadiness comes from two rules. Every model number is an exact,
 * deterministic count. Host time is also reported divided by the time
 * of a fixed reference kernel (hash-map updates and a binary heap, sized
 * to the simulation's event count) that runs just before every
 * simulation, so a machine that slows down slows both.
 *
 * --seed drives what the harness generates: the order of simulations
 * inside each pass and the reference kernel's keys. The model inputs
 * stay pinned at seed 42, the seed the expected outputs and the
 * paper's Fig. 12 comparison are recorded at.
 *
 * The last stdout line is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * with the end-to-end metrics (--trace=0) or the per-layer metrics
 * (--trace=1). Exit code 1 when any simulation failed its checks,
 * 2 on bad arguments.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <malloc.h>

#include "src/obs/json.hh"
#include "src/obs/sampler.hh"
#include "src/obs/span.hh"
#include "src/obs/trace.hh"
#include "src/sim/watchdog.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/sys/report.hh"
#include "src/workloads/workload.hh"

using namespace griffin;

// ---------------------------------------------------------------------
// Allocation counter: global operator new replaced in this binary only,
// counted per phase. The harness is single-threaded, so plain counters
// suffice. Idle-phase allocations (the harness itself, the reference
// kernel) are not reported.

namespace {

enum Phase : unsigned { Idle, Setup, Run, Serialize, NumPhases };

Phase g_phase = Idle;
std::uint64_t g_allocs[NumPhases] = {};

struct PhaseScope
{
    Phase prev;
    explicit PhaseScope(Phase p) : prev(g_phase) { g_phase = p; }
    ~PhaseScope() { g_phase = prev; }
    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;
};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    ++g_allocs[g_phase];
    if (n == 0)
        n = 1;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t))
        p = std::malloc(n);
    else if (posix_memalign(&p, align, n) != 0)
        p = nullptr;
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n, 0))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    if (void *p = countedAlloc(n, std::size_t(a)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return operator new(n, a);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}

namespace {

// Out of line, so GCC does not pair the inlined free() with operator
// new at call sites (-Wmismatched-new-delete).
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void operator delete[](void *p, std::align_val_t) noexcept { release(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

namespace {

std::uint64_t
nowNs()
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now()
                                 .time_since_epoch())
                             .count());
}

// ---------------------------------------------------------------------
// Peak resident memory, reset before every simulation through
// /proc/self/clear_refs (Linux >= 4.0). Where the reset is refused the
// reading is the process-wide peak instead.

std::uint64_t
statusKb(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, len, key) == 0)
            return std::strtoull(line.c_str() + len, nullptr, 10);
    }
    return 0;
}

bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return bool(out);
}

// ---------------------------------------------------------------------
// Reference kernel: a fixed amount of host work, in the benchmark's own
// code, whose speed tracks the machine the way the simulator's does.
// It mimics the simulator's host profile: hash-map updates that
// allocate (one heap allocation per simulated event is typical) and a
// bounded binary heap (the event queue's spill tier). Measured over 16
// Fig. 12 passes on a 4-core KVM guest, simulation wall time varied
// with a 20% coefficient of variation; divided by this kernel's time it
// varied by 4.6%. A pointer chase over a 32 MB LLC-sized ring tracked
// far worse (14%), so the kernel has none.

class RefKernel
{
  public:
    /**
     * Rounds run on each side of a simulation: one, plus one per this
     * many events the simulation is recorded to execute.
     */
    static constexpr std::uint64_t eventsPerRound = std::uint64_t(1) << 19;
    /**
     * Nominal round time that set-up time is scaled to: setup_s is the
     * set-up time on a machine where one round takes 20 ms.
     */
    static constexpr double nominalRoundNs = 20e6;

    explicit RefKernel(std::uint64_t seed)
        : _state(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL)
    {
    }

    /** Run @p rounds rounds; @return their wall time in nanoseconds. */
    std::uint64_t
    run(std::uint64_t rounds)
    {
        const std::uint64_t t0 = nowNs();
        for (std::uint64_t r = 0; r < rounds; ++r) {
            std::unordered_map<std::uint32_t, std::uint32_t> counts;
            for (unsigned i = 0; i < mapUpdates; ++i)
                ++counts[std::uint32_t(next() >> 40) & keyMask];
            std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                                std::greater<>>
                heap;
            for (unsigned i = 0; i < heapOps; ++i) {
                heap.push(next() >> 24);
                if (heap.size() > heapBound)
                    heap.pop();
            }
            _sink = _sink + std::uint32_t(counts.size()) +
                    std::uint32_t(heap.top());
        }
        return nowNs() - t0;
    }

  private:
    static constexpr unsigned mapUpdates = 1u << 16;
    static constexpr std::uint32_t keyMask = (1u << 18) - 1;
    static constexpr unsigned heapOps = 1u << 17;
    static constexpr std::size_t heapBound = 4096;

    std::uint64_t
    next()
    {
        _state = _state * 6364136223846793005ULL + 1442695040888963407ULL;
        return _state;
    }

    std::uint64_t _state;
    volatile std::uint32_t _sink = 0;
};

// ---------------------------------------------------------------------
// Workloads

constexpr std::uint64_t modelSeed = 42;
constexpr double paperFig12Geomean = 1.37;
constexpr Tick telemetryTick = 10000; // --timeseries=10000 / --sample

struct WorkloadDef
{
    std::string name;
    unsigned scaleDiv;
    std::vector<std::string> apps;
    bool telemetry;
};

std::vector<WorkloadDef>
workloadDefs()
{
    return {
        {"fig12-sweep", 32, wl::workloadNames(), false},
        {"fir-paper", 1, {"FIR"}, false},
        {"telemetry", 32, {"SC", "BS", "FW"}, true},
    };
}

struct SimSpec
{
    std::string app;
    bool griffin;

    std::string
    label() const
    {
        return app + (griffin ? "/griffin" : "/first-touch");
    }
};

/** Recorded deterministic outputs of one simulation. */
struct Expected
{
    std::uint64_t cycles = 0, events = 0, faults = 0, migrations = 0;
    std::string outputsHash = "-";
};

/** One simulation of one pass: what was checked and what was timed. */
struct SimRecord
{
    std::string label;
    std::string app;
    bool griffin = false;
    bool ok = true;
    std::uint64_t cycles = 0, events = 0, faults = 0, migrations = 0;
    std::string outputsHash = "-";
    std::uint64_t refRounds = 0;
    std::uint64_t refNs = 0, makeNs = 0, constructNs = 0, runNs = 0,
                  serializeNs = 0, teardownNs = 0;
    std::uint64_t allocs[NumPhases] = {};
    std::uint64_t peakRssBytes = 0;
    std::uint64_t reportBytes = 0, traceEvents = 0;
    /** Additive exact model counts, summed over a pass. */
    std::map<std::string, double> counts;
    obs::HostProfile prof;

    std::uint64_t
    setupNs() const
    {
        return makeNs + constructNs;
    }
    std::uint64_t
    wallNs() const
    {
        return makeNs + constructNs + runNs + serializeNs + teardownNs;
    }
};

/** A benchmark-side span, kept in memory, written at exit. */
struct Span
{
    std::string name;
    std::string cat;
    std::uint64_t startNs, durNs;
    int id, parent;
};

std::uint64_t
fnv1a(std::uint64_t h, const std::string &bytes)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
sumMatching(const sim::StatSet &stats, const std::string &prefix,
            const std::string &suffix)
{
    double total = 0;
    for (const auto &[name, value] : stats.all()) {
        if (name.size() >= prefix.size() + suffix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            total += value;
    }
    return total;
}

std::map<std::string, double>
exactCounts(const sys::RunResult &r)
{
    const auto &st = r.stats;
    const auto stage = [&r](obs::Stage s) {
        return r.faultBreakdown.stageSum(s);
    };
    double link_dirs = 0;
    for (const auto &[name, value] : st.all()) {
        (void)value;
        if (name.rfind("link", 0) == 0 &&
            name.find("BusyCycles") != std::string::npos)
            ++link_dirs;
    }
    return {
        {"ops_issued", sumMatching(st, "gpu", ".opsIssued")},
        {"ops_discarded", sumMatching(st, "gpu", ".opsDiscarded")},
        {"local", double(r.localAccesses)},
        {"remote", double(r.remoteAccesses)},
        {"l2_hits", sumMatching(st, "gpu", ".l2Hits")},
        {"l2_misses", sumMatching(st, "gpu", ".l2Misses")},
        {"page_migrations", st.get("pageTable.migrations")},
        {"iommu_walks", st.get("iommu.walks")},
        {"iotlb_hits", st.get("iommu.iotlbHits")},
        {"iommu_requests", st.get("iommu.requests")},
        {"walk_queue_cycles", stage(obs::Stage::WalkQueue)},
        {"walk_cycles", stage(obs::Stage::Walk)},
        {"messages", st.get("network.messages")},
        {"link_busy_cycles", sumMatching(st, "link", "BusyCycles")},
        {"link_capacity_cycles", link_dirs * double(r.cycles)},
        {"transfer_cycles", stage(obs::Stage::Transfer)},
        {"transfer_queue_cycles", stage(obs::Stage::TransferQueue)},
        {"faults", st.get("driver.faults")},
        {"batches", st.get("driver.batches")},
        {"batch_wait_cycles", stage(obs::Stage::BatchWait)},
        {"inter_gpu_migrations", st.get("griffin.interGpuMigrations")},
        {"dftm_denials", st.get("griffin.dftm.denials")},
        {"shootdown_cycles", stage(obs::Stage::Shootdown)},
    };
}

// ---------------------------------------------------------------------
// The benchmark

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30;
    bool trace = false;
    bool record = false;
    std::string outDir;
    std::string expectedFile;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "error: " << why << "\n"
              << "usage: perfbench_harness --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --out=DIR "
                 "(--expected=FILE | --record)\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                usage("--seed wants an unsigned integer");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(a.seconds > 0))
                usage("--seconds wants a positive number");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace wants 0 or 1");
            a.trace = val == "1";
        } else if (key == "--out") {
            a.outDir = val;
        } else if (key == "--expected") {
            a.expectedFile = val;
        } else if (arg == "--record") {
            a.record = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (a.outDir.empty())
        usage("--out is required");
    if (!a.record && a.expectedFile.empty())
        usage("--expected is required unless --record");
    return a;
}

std::map<std::string, Expected>
loadExpected(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    if (!in)
        usage("cannot read " + path);
    std::map<std::string, Expected> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string wname, label;
        Expected e;
        if (!(is >> wname >> label >> e.cycles >> e.events >> e.faults >>
              e.migrations >> e.outputsHash))
            usage("malformed line in " + path + ": " + line);
        if (wname == workload)
            out[label] = e;
    }
    return out;
}

class Bench
{
  public:
    Bench(const Args &args, const WorkloadDef &def)
        : _args(args), _def(def), _ref(args.seed), _rng(args.seed)
    {
        if (!args.record)
            _expected = loadExpected(args.expectedFile, def.name);
        for (const auto &app : def.apps) {
            _specs.push_back({app, false});
            _specs.push_back({app, true});
        }
        if (!args.record) {
            for (const auto &spec : _specs) {
                if (!_expected.count(spec.label()))
                    usage("no expected outputs for " + def.name + " " +
                          spec.label() + " in " + args.expectedFile);
            }
        }
        _wcfg.scaleDiv = def.scaleDiv;
        _wcfg.seed = modelSeed;
    }

    /**
     * One pass: every simulation of the workload once, in an order
     * shuffled by --seed. @p profiled turns on the host profiler.
     */
    std::vector<SimRecord>
    pass(bool profiled)
    {
        std::vector<SimSpec> order = _specs;
        std::shuffle(order.begin(), order.end(), _rng);
        std::vector<SimRecord> recs;
        for (const auto &spec : order)
            recs.push_back(simulate(spec, profiled));
        double wall = 0, ref = 0;
        std::uint64_t peak = 0;
        for (const auto &rec : recs) {
            wall += double(rec.wallNs());
            ref += double(rec.refNs);
            peak = std::max(peak, rec.peakRssBytes);
        }
        std::fprintf(stderr,
                     "pass%s: wall %.3f s, reference %.3f s, peak RSS "
                     "%.2f MB\n",
                     profiled ? " (profiled)" : "", wall / 1e9, ref / 1e9,
                     double(peak) / (1024.0 * 1024.0));
        return recs;
    }

    /**
     * Time makeKernel over every kernel of the workload's apps, from
     * outside the simulator. @return {nanoseconds, ops generated}.
     */
    std::pair<std::uint64_t, std::uint64_t>
    timeGeneration()
    {
        std::uint64_t ns = 0, ops = 0;
        const int id = beginSpan("workloads.gen", "workloads", -1);
        for (const auto &app : _def.apps) {
            auto workload = wl::makeWorkload(app, _wcfg);
            for (unsigned k = 0; k < workload->numKernels(); ++k) {
                const std::uint64_t t0 = nowNs();
                const wl::KernelLaunch launch = workload->makeKernel(k);
                ns += nowNs() - t0;
                ops += launch.totalOps();
            }
        }
        endSpan(id);
        return {ns, ops};
    }

    /** Warm-up run: lazy statics and first-touch heap growth. */
    void
    warmUp()
    {
        wl::WorkloadConfig cfg = _wcfg;
        cfg.scaleDiv = 32;
        auto workload = wl::makeWorkload("MT", cfg);
        sys::MultiGpuSystem system(sys::SystemConfig::baseline());
        system.run(*workload);
    }

    bool rssResettable() const { return _rssResettable; }
    std::size_t failures() const { return _failures; }
    std::size_t attempted() const { return _attempted; }

    /** Write the spans as a Chrome trace-event document. */
    void
    writeSpans(const std::string &path) const
    {
        obs::json::Value events = obs::json::Value::array();
        for (const Span &s : _spans) {
            obs::json::Value e = obs::json::Value::object();
            e["name"] = obs::json::Value(s.name);
            e["cat"] = obs::json::Value(s.cat);
            e["ph"] = obs::json::Value(std::string("X"));
            e["ts"] = obs::json::Value(double(s.startNs - _epoch) / 1e3);
            e["dur"] = obs::json::Value(double(s.durNs) / 1e3);
            e["pid"] = obs::json::Value(std::uint64_t(1));
            e["tid"] = obs::json::Value(std::uint64_t(1));
            obs::json::Value args = obs::json::Value::object();
            args["id"] = obs::json::Value(std::uint64_t(s.id));
            if (s.parent >= 0)
                args["parent"] = obs::json::Value(std::uint64_t(s.parent));
            e["args"] = std::move(args);
            events.push(std::move(e));
        }
        obs::json::Value doc = obs::json::Value::object();
        doc["traceEvents"] = std::move(events);
        std::ofstream os(path);
        os << doc.dump() << "\n";
    }

    void setSpanRecording(bool on) { _recordSpans = on; }

  private:
    int
    beginSpan(const std::string &name, const std::string &cat, int parent)
    {
        if (!_recordSpans)
            return -1;
        PhaseScope idle(Idle); // span storage is not the simulator's
        _spans.push_back({name, cat, nowNs(), 0, int(_spans.size()),
                          parent});
        return _spans.back().id;
    }

    void
    endSpan(int id)
    {
        if (id >= 0)
            _spans[std::size_t(id)].durNs =
                nowNs() - _spans[std::size_t(id)].startNs;
    }

    SimRecord
    simulate(const SimSpec &spec, bool profiled)
    {
        SimRecord rec;
        rec.label = spec.label();
        rec.app = spec.app;
        rec.griffin = spec.griffin;
        ++_attempted;

        const int sim_span = beginSpan(
            rec.label + (profiled ? " (profiled)" : ""), "sim", -1);
        // The kernel brackets the simulation, so it samples the machine
        // at both ends of a long run, not only before it.
        const std::uint64_t rounds =
            1 + expectedEvents(rec.label) / RefKernel::eventsPerRound;
        rec.refRounds = 2 * rounds;
        int span = beginSpan("bench.ref", "bench", sim_span);
        rec.refNs = _ref.run(rounds);
        endSpan(span);

        // Start every simulation from the same heap and RSS state.
        malloc_trim(0);
        _rssResettable = _rssResettable && resetPeakRss();
        std::uint64_t allocs0[NumPhases];
        std::copy(std::begin(g_allocs), std::end(g_allocs), allocs0);

        sys::SystemConfig cfg = spec.griffin
                                    ? sys::SystemConfig::griffinDefault()
                                    : sys::SystemConfig::baseline();
        if (_def.telemetry) {
            cfg.pageStats.enabled = true;
            cfg.timeseriesTick = telemetryTick;
        }
        cfg.hostProf = profiled;

        std::uint64_t t = nowNs();
        const auto lap = [&t] {
            const std::uint64_t now = nowNs();
            const std::uint64_t d = now - t;
            t = now;
            return d;
        };

        std::unique_ptr<wl::Workload> workload;
        std::unique_ptr<sys::MultiGpuSystem> system;
        std::unique_ptr<obs::TraceSession> trace;
        std::unique_ptr<obs::Sampler> sampler;
        {
            PhaseScope phase(Setup);
            span = beginSpan("workloads.make", "workloads", sim_span);
            workload = wl::makeWorkload(spec.app, _wcfg);
            endSpan(span);
            rec.makeNs = lap();
            span = beginSpan("sys.construct", "sys", sim_span);
            system = std::make_unique<sys::MultiGpuSystem>(cfg);
            if (_def.telemetry) {
                trace = std::make_unique<obs::TraceSession>();
                trace->beginProcess(rec.label);
                sampler = std::make_unique<obs::Sampler>();
            }
            endSpan(span);
            rec.constructNs = lap();
        }

        std::optional<sys::RunResult> result;
        {
            PhaseScope phase(Run);
            span = beginSpan("sys.run", "sim", sim_span);
            if (trace)
                trace->attach();
            if (sampler) {
                system->registerProbes(*sampler);
                sampler->start(system->engine(), telemetryTick);
            }
            try {
                result = system->run(*workload);
            } catch (const sim::WatchdogError &e) {
                std::cerr << rec.label << ": watchdog: " << e.what()
                          << "\n";
            } catch (const std::exception &e) {
                std::cerr << rec.label << ": threw: " << e.what() << "\n";
            }
            if (sampler)
                sampler->stop();
            if (trace)
                trace->detach();
            endSpan(span);
            rec.runNs = lap();
        }

        if (result && _def.telemetry) {
            PhaseScope phase(Serialize);
            span = beginSpan("obs.serialize", "obs", sim_span);
            rec.outputsHash = serialize(rec.label, cfg, *result, *trace,
                                        *sampler, rec);
            endSpan(span);
        }
        rec.serializeNs = lap();

        span = beginSpan("sys.teardown", "sys", sim_span);
        sampler.reset();
        trace.reset();
        system.reset();
        workload.reset();
        endSpan(span);
        rec.teardownNs = lap();

        for (unsigned p = 0; p < NumPhases; ++p)
            rec.allocs[p] = g_allocs[p] - allocs0[p];
        rec.peakRssBytes = statusKb("VmHWM:") * 1024;
        span = beginSpan("bench.ref", "bench", sim_span);
        rec.refNs += _ref.run(rounds);
        endSpan(span);
        endSpan(sim_span);

        if (!result) {
            rec.ok = false;
        } else {
            const sys::RunResult &r = *result;
            rec.cycles = r.cycles;
            rec.events = std::uint64_t(r.stats.get("sim.events"));
            rec.faults = std::uint64_t(r.stats.get("driver.faults"));
            rec.migrations =
                std::uint64_t(r.stats.get("pageTable.migrations"));
            rec.counts = exactCounts(r);
            rec.prof = r.hostProfile;
            if (r.auditViolations > 0 || r.faultSpansOpen > 0) {
                std::cerr << rec.label << ": " << r.auditViolations
                          << " audit violations, " << r.faultSpansOpen
                          << " open fault spans\n";
                rec.ok = false;
            }
        }
        if (!_args.record && rec.ok)
            rec.ok = matchesExpected(rec, profiled);
        if (!rec.ok)
            ++_failures;
        return rec;
    }

    /**
     * Build and write every telemetry output of one run (report,
     * Chrome trace, samples CSV) as the bench --report/--trace/
     * --samples flags do. @return the hash of the written bytes.
     */
    std::string
    serialize(const std::string &label, const sys::SystemConfig &cfg,
              const sys::RunResult &result, const obs::TraceSession &trace,
              const obs::Sampler &sampler, SimRecord &rec)
    {
        std::string stem = label;
        std::replace(stem.begin(), stem.end(), '/', '_');
        const std::string base = _args.outDir + "/" + stem;

        obs::json::Value runs = obs::json::Value::array();
        runs.push(sys::runReportJson(label, cfg, result, &sampler));
        const std::string report =
            sys::reportDocument(std::move(runs)).dump(2) + "\n";
        std::ostringstream trace_os;
        obs::TraceSession::writeMerged(trace_os, {&trace});
        const std::string trace_json = trace_os.str();
        const std::string samples = "# " + label + "\n" + sampler.csv();

        std::ofstream(base + ".report.json") << report;
        std::ofstream(base + ".trace.json") << trace_json;
        std::ofstream(base + ".samples.csv") << samples;

        rec.reportBytes = report.size();
        rec.traceEvents = trace.eventCount();
        std::uint64_t h = 0xcbf29ce484222325ULL;
        h = fnv1a(h, report);
        h = fnv1a(h, trace_json);
        h = fnv1a(h, samples);
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
        return buf;
    }

    std::uint64_t
    expectedEvents(const std::string &label) const
    {
        const auto it = _expected.find(label);
        return it == _expected.end() ? 0 : it->second.events;
    }

    /**
     * A profiled run's report carries host timings, so its output bytes
     * are not compared; its model counts are.
     */
    bool
    matchesExpected(const SimRecord &rec, bool profiled) const
    {
        const Expected &e = _expected.at(rec.label);
        const bool same = rec.cycles == e.cycles && rec.events == e.events &&
                          rec.faults == e.faults &&
                          rec.migrations == e.migrations &&
                          (profiled || rec.outputsHash == e.outputsHash);
        if (!same) {
            std::cerr << rec.label << ": outputs deviate from the record: "
                      << "cycles " << rec.cycles << " vs " << e.cycles
                      << ", events " << rec.events << " vs " << e.events
                      << ", faults " << rec.faults << " vs " << e.faults
                      << ", migrations " << rec.migrations << " vs "
                      << e.migrations << ", outputs " << rec.outputsHash
                      << " vs " << e.outputsHash << "\n";
        }
        return same;
    }

    const Args &_args;
    const WorkloadDef &_def;
    RefKernel _ref;
    std::mt19937_64 _rng;
    wl::WorkloadConfig _wcfg;
    std::vector<SimSpec> _specs;
    std::map<std::string, Expected> _expected;
    bool _rssResettable = true;
    std::size_t _failures = 0, _attempted = 0;
    bool _recordSpans = false;
    std::vector<Span> _spans;
    std::uint64_t _epoch = nowNs();
};

// ---------------------------------------------------------------------
// Reduction and reporting

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename F>
double
passTotal(const std::vector<SimRecord> &pass, F field)
{
    double total = 0;
    for (const auto &rec : pass)
        total += double(field(rec));
    return total;
}

/** Median over passes of a per-pass quantity. */
template <typename F>
double
medianOver(const std::vector<std::vector<SimRecord>> &passes, F per_pass)
{
    std::vector<double> v;
    for (const auto &p : passes)
        v.push_back(per_pass(p));
    return median(v);
}

double
countTotal(const std::vector<SimRecord> &pass, const std::string &key)
{
    double total = 0;
    for (const auto &rec : pass) {
        if (auto it = rec.counts.find(key); it != rec.counts.end())
            total += it->second;
    }
    return total;
}

double
pct(double num, double den)
{
    return den > 0 ? 100.0 * num / den : 0.0;
}

/** Geomean over apps of first-touch cycles / Griffin cycles. */
double
griffinSpeedup(const std::vector<SimRecord> &pass)
{
    std::map<std::string, std::pair<double, double>> by_app;
    for (const auto &rec : pass) {
        auto &slot = by_app[rec.app];
        (rec.griffin ? slot.second : slot.first) = double(rec.cycles);
    }
    double log_sum = 0;
    for (const auto &[app, c] : by_app) {
        (void)app;
        if (c.first <= 0 || c.second <= 0)
            return 0;
        log_sum += std::log(c.first / c.second);
    }
    return std::exp(log_sum / double(by_app.size()));
}

/** Self time of the profiled buckets whose component is listed. */
double
selfMs(const std::vector<SimRecord> &pass,
       std::initializer_list<const char *> components)
{
    double ns = 0;
    for (const auto &rec : pass) {
        for (const auto &b : rec.prof.buckets) {
            for (const char *c : components)
                if (b.component == c)
                    ns += double(b.selfNs);
        }
    }
    return ns / 1e6;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
emit(const std::vector<Metric> &metrics, std::size_t attempted,
     std::size_t failed)
{
    for (const auto &m : metrics)
        std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%-32s %18.6f %%\n", "failed_pct",
                pct(double(failed), double(attempted)));
    std::ostringstream js;
    js << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &m : metrics) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
           << num << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
}

std::vector<Metric>
endToEnd(const std::vector<std::vector<SimRecord>> &passes)
{
    const auto &any = passes.front();
    const double events = passTotal(any, [](auto &r) { return r.events; });
    const double speedup = griffinSpeedup(any);
    return {
        {"norm_wall", medianOver(passes, [](auto &p) {
             return passTotal(p, [](auto &r) { return r.wallNs(); }) /
                    passTotal(p, [](auto &r) { return r.refNs; });
         }), "ratio"},
        // Raw set-up time drifts with the machine as much as raw wall
        // time does, so it is scaled to the reference kernel's speed.
        {"setup_s", medianOver(passes, [](auto &p) {
             const double rounds =
                 passTotal(p, [](auto &r) { return r.refRounds; });
             return passTotal(p, [](auto &r) { return r.setupNs(); }) *
                    (rounds * RefKernel::nominalRoundNs) /
                    passTotal(p, [](auto &r) { return r.refNs; }) / 1e9;
         }), "s"},
        {"peak_rss_mb", medianOver(passes, [](auto &p) {
             std::uint64_t peak = 0;
             for (const auto &r : p)
                 peak = std::max(peak, r.peakRssBytes);
             return double(peak) / (1024.0 * 1024.0);
         }), "MB"},
        {"allocs_per_event",
         passTotal(any, [](auto &r) {
             return r.allocs[Setup] + r.allocs[Run] + r.allocs[Serialize];
         }) / events,
         "count"},
        {"sim_events", events, "count"},
        {"sim_cycles", passTotal(any, [](auto &r) { return r.cycles; }),
         "cycles"},
        {"griffin_speedup", speedup, "x"},
        // On fir-paper and telemetry this is the distance of that
        // subset's geomean from the paper's Fig. 12 geomean, not an
        // error: the paper publishes no per-app figure the model was
        // validated against.
        {"speedup_err_pct",
         100.0 * std::fabs(speedup - paperFig12Geomean) /
             paperFig12Geomean,
         "%"},
    };
}

/** Module of a host-profile component (the src/ directory). */
const char *
moduleOf(const std::string &component)
{
    static const std::map<std::string, const char *> modules = {
        {"cu", "gpu"},          {"gpu", "gpu"},
        {"dispatcher", "gpu"},  {"rdma", "gpu/rdma"},
        {"pmc", "gpu/pmc"},     {"network", "interconnect"},
        {"iommu", "xlat"},      {"driver", "driver"},
        {"policy", "core"},     {"acud", "core"},
        {"obs", "obs"},         {"sys", "sys"},
        {"chaos", "sys"},       {"sim", "sim"},
    };
    const auto it = modules.find(component);
    return it == modules.end() ? "other" : it->second;
}

/** Per-module host-time table of one profiled pass, reconciled. */
void
printLayerTable(const std::vector<SimRecord> &traced)
{
    std::map<std::string, double> by_module;
    double dispatch = 0, bucket_sum = 0, run = 0, wall = 0, setup = 0,
           serialize = 0, teardown = 0;
    for (const auto &rec : traced) {
        for (const auto &b : rec.prof.buckets) {
            by_module[moduleOf(b.component)] += double(b.selfNs);
            bucket_sum += double(b.selfNs);
        }
        dispatch += double(rec.prof.dispatchNs);
        run += double(rec.runNs);
        wall += double(rec.wallNs());
        setup += double(rec.setupNs());
        serialize += double(rec.serializeNs);
        teardown += double(rec.teardownNs);
    }
    std::printf("\nper-layer host time, profiled pass (ms, %% of wall)\n");
    const auto row = [wall](const std::string &name, double ns) {
        std::printf("  %-34s %10.1f %6.1f%%\n", name.c_str(), ns / 1e6,
                    pct(ns, wall));
    };
    for (const auto &[module, ns] : by_module)
        row(module + " (dispatch self)", ns);
    row("sim (run, outside every bucket)", run - bucket_sum);
    row("workloads+sys (setup)", setup);
    row("obs (serialize)", serialize);
    row("sys (teardown)", teardown);
    const double total = run + setup + serialize + teardown;
    std::printf("  %-34s %10.1f  (wall %.1f ms; buckets %.1f ms, of "
                "which dispatch brackets %.1f ms)\n",
                "total", total / 1e6, wall / 1e6, bucket_sum / 1e6,
                dispatch / 1e6);
}

std::vector<Metric>
perLayer(const std::vector<std::vector<SimRecord>> &plain,
         const std::vector<std::vector<SimRecord>> &traced,
         double gen_ns_per_op)
{
    const auto &p = plain.front();
    const auto c = [&p](const char *k) { return countTotal(p, k); };
    const auto traced_ms = [&traced](auto components) {
        std::vector<double> v;
        for (const auto &t : traced)
            v.push_back(selfMs(t, components));
        return median(v);
    };
    using L = std::initializer_list<const char *>;
    const double deliver = traced_ms(L{"network"});
    const double rdma = traced_ms(L{"rdma"});
    const double dispatch_ms = medianOver(traced, [](auto &t) {
        return passTotal(t, [](auto &r) { return r.prof.dispatchNs; }) /
               1e6;
    });
    const double plain_wall = medianOver(plain, [](auto &q) {
        return passTotal(q, [](auto &r) { return r.wallNs(); });
    });
    const double traced_wall = medianOver(traced, [](auto &q) {
        return passTotal(q, [](auto &r) { return r.wallNs(); });
    });
    const double events = passTotal(p, [](auto &r) { return r.events; });
    return {
        {"sim.host_ns_per_event", medianOver(plain, [](auto &q) {
             return passTotal(q, [](auto &r) { return r.runNs; });
         }) / events, "ns"},
        {"sim.unattributed_pct", medianOver(traced, [](auto &q) {
             double run = 0, attributed = 0;
             for (const auto &r : q) {
                 run += double(r.runNs);
                 for (const auto &b : r.prof.buckets)
                     if (b.component != "sim")
                         attributed += double(b.selfNs);
             }
             return pct(run - attributed, run);
         }), "%"},
        {"sim.dispatch_ms", dispatch_ms, "ms"},
        {"workloads.gen_ns_per_op", gen_ns_per_op, "ns"},
        {"gpu.cu_self_ms", traced_ms(L{"cu"}), "ms"},
        {"gpu.mempath_self_ms", traced_ms(L{"gpu"}), "ms"},
        {"gpu.ops_issued", c("ops_issued"), "count"},
        {"gpu.ops_discarded_pct", pct(c("ops_discarded"), c("ops_issued")),
         "%"},
        {"gpu.local_pct", pct(c("local"), c("local") + c("remote")), "%"},
        {"mem.l2_hit_pct", pct(c("l2_hits"), c("l2_hits") + c("l2_misses")),
         "%"},
        {"mem.page_migrations", c("page_migrations"), "count"},
        {"xlat.iommu_walks", c("iommu_walks"), "count"},
        {"xlat.iotlb_hit_pct", pct(c("iotlb_hits"), c("iommu_requests")),
         "%"},
        {"xlat.walk_queue_cycles", c("walk_queue_cycles"), "cycles"},
        {"xlat.walk_cycles", c("walk_cycles"), "cycles"},
        {"xlat.iommu_self_ms", traced_ms(L{"iommu"}), "ms"},
        {"interconnect.messages", c("messages"), "count"},
        {"interconnect.link_busy_pct",
         pct(c("link_busy_cycles"), c("link_capacity_cycles")), "%"},
        {"interconnect.deliver_self_ms", deliver, "ms"},
        {"interconnect.fabric_dispatch_pct",
         pct(deliver + rdma, dispatch_ms), "%"},
        {"rdma.remote_accesses", c("remote"), "count"},
        {"rdma.self_ms", rdma, "ms"},
        {"pmc.transfer_cycles", c("transfer_cycles"), "cycles"},
        {"pmc.transfer_queue_cycles", c("transfer_queue_cycles"), "cycles"},
        {"pmc.self_ms", traced_ms(L{"pmc"}), "ms"},
        {"driver.faults", c("faults"), "count"},
        {"driver.batches", c("batches"), "count"},
        {"driver.batch_wait_cycles", c("batch_wait_cycles"), "cycles"},
        {"core.inter_gpu_migrations", c("inter_gpu_migrations"), "count"},
        {"core.dftm_denials", c("dftm_denials"), "count"},
        {"core.shootdown_cycles", c("shootdown_cycles"), "cycles"},
        {"core.policy_self_ms", traced_ms(L{"policy", "acud"}), "ms"},
        // A share, not a time: with telemetry off it is exactly zero.
        {"obs.record_dispatch_pct", pct(traced_ms(L{"obs"}), dispatch_ms),
         "%"},
        {"obs.serialize_s", medianOver(plain, [](auto &q) {
             return passTotal(q, [](auto &r) { return r.serializeNs; }) /
                    1e9;
         }), "s"},
        {"obs.serialize_allocs",
         passTotal(p, [](auto &r) { return r.allocs[Serialize]; }),
         "count"},
        {"obs.report_bytes", passTotal(p, [](auto &r) {
             return r.reportBytes;
         }), "bytes"},
        {"obs.trace_events", passTotal(p, [](auto &r) {
             return r.traceEvents;
         }), "count"},
        {"obs.hostprof_overhead_pct",
         100.0 * (traced_wall / plain_wall - 1.0), "%"},
        {"sys.construct_ms", medianOver(plain, [](auto &q) {
             return passTotal(q, [](auto &r) { return r.constructNs; }) /
                    1e6;
         }), "ms"},
        {"sys.setup_allocs",
         passTotal(p, [](auto &r) { return r.allocs[Setup]; }), "count"},
        {"sys.run_allocs",
         passTotal(p, [](auto &r) { return r.allocs[Run]; }), "count"},
        {"bench.ref_s", medianOver(plain, [](auto &q) {
             return passTotal(q, [](auto &r) { return r.refNs; }) / 1e9;
         }), "s"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // Pin glibc's allocation thresholds. By default the mmap threshold
    // rises after the first large free, so where big buffers (report
    // and trace strings) live would depend on the shuffled simulation
    // order, and so would the peak RSS.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    mallopt(M_TRIM_THRESHOLD, 128 * 1024);
    const auto defs = workloadDefs();
    const auto def =
        std::find_if(defs.begin(), defs.end(),
                     [&](auto &d) { return d.name == args.workload; });
    if (def == defs.end())
        usage("unknown workload '" + args.workload +
              "' (fig12-sweep, fir-paper, telemetry)");

    Bench bench(args, *def);
    bench.warmUp();

    if (args.record) {
        std::printf("# workload label cycles events faults migrations "
                    "outputs_hash\n");
        for (const auto &rec : bench.pass(false)) {
            std::printf("%s %s %llu %llu %llu %llu %s\n", def->name.c_str(),
                        rec.label.c_str(), (unsigned long long)rec.cycles,
                        (unsigned long long)rec.events,
                        (unsigned long long)rec.faults,
                        (unsigned long long)rec.migrations,
                        rec.outputsHash.c_str());
        }
        return bench.failures() == 0 ? 0 : 1;
    }

    // Closed loop: whole passes back to back until the next one would
    // overrun --seconds. Untraced runs keep at least three passes so
    // the reported medians have a middle.
    const std::uint64_t start = nowNs();
    const auto elapsed = [start] { return double(nowNs() - start) / 1e9; };
    std::vector<std::vector<SimRecord>> plain, traced;
    std::vector<double> gen_ns_per_op;
    double last = 0;
    if (!args.trace) {
        while (plain.size() < 3 || elapsed() + last <= args.seconds) {
            const double t0 = elapsed();
            plain.push_back(bench.pass(false));
            last = elapsed() - t0;
        }
    } else {
        bench.setSpanRecording(true);
        while (traced.empty() || elapsed() + last <= args.seconds) {
            const double t0 = elapsed();
            plain.push_back(bench.pass(false));
            traced.push_back(bench.pass(true));
            const auto [ns, ops] = bench.timeGeneration();
            gen_ns_per_op.push_back(ops ? double(ns) / double(ops) : 0);
            last = elapsed() - t0;
        }
    }

    std::printf("workload %s: %zu untraced and %zu profiled passes in "
                "%.1f s (seed %llu)%s\n",
                def->name.c_str(), plain.size(), traced.size(), elapsed(),
                (unsigned long long)args.seed,
                bench.rssResettable() ? ""
                                      : "; peak RSS is process-wide "
                                        "(clear_refs refused)");
    std::vector<Metric> metrics;
    if (!args.trace) {
        // Raw host times, for the record: on a shared host they drift
        // with the machine, so no bounded metric is built on them.
        const auto raw = [&plain](auto field) {
            return medianOver(plain, [&field](auto &p) {
                       return passTotal(p, field);
                   }) / 1e9;
        };
        std::printf("raw medians: wall %.3f s, set-up %.4f s, reference "
                    "kernel %.3f s\n",
                    raw([](auto &r) { return r.wallNs(); }),
                    raw([](auto &r) { return r.setupNs(); }),
                    raw([](auto &r) { return r.refNs; }));
        metrics = endToEnd(plain);
    } else {
        printLayerTable(traced.back());
        const std::string spans =
            args.outDir + "/spans-" + def->name + ".json";
        bench.writeSpans(spans);
        std::printf("benchmark spans: %s\n\n", spans.c_str());
        metrics = perLayer(plain, traced, median(gen_ns_per_op));
    }
    emit(metrics, bench.attempted(), bench.failures());
    return bench.failures() == 0 ? 0 : 1;
}
